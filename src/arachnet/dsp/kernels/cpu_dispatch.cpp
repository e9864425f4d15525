#include "arachnet/dsp/kernels/cpu_dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "arachnet/telemetry/log.hpp"

namespace arachnet::dsp {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.sse2 = __builtin_cpu_supports("sse2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#elif defined(__aarch64__)
  // AdvSIMD is part of the aarch64 baseline ABI.
  f.neon = true;
#endif
  return f;
}

/// Best tier the hardware (and build configuration) supports.
SimdIsa best_supported(const CpuFeatures& f) noexcept {
#if defined(ARACHNET_DISABLE_SIMD)
  return f.neon ? SimdIsa::kNeon : SimdIsa::kGeneric;
#else
  if (f.avx2 && f.fma) return SimdIsa::kAvx2;
  if (f.neon) return SimdIsa::kNeon;
  return SimdIsa::kGeneric;
#endif
}

/// Clamps a requested tier to hardware support: AVX2 degrades to the
/// portable tier, and the portable tier maps to NEON on aarch64.
SimdIsa clamp(SimdIsa requested, const CpuFeatures& f) noexcept {
  if (requested == SimdIsa::kAvx2 && best_supported(f) != SimdIsa::kAvx2) {
    requested = f.neon ? SimdIsa::kNeon : SimdIsa::kGeneric;
  }
  if (requested == SimdIsa::kNeon && !f.neon) return SimdIsa::kGeneric;
  if (requested == SimdIsa::kGeneric && f.neon) return SimdIsa::kNeon;
  return requested;
}

SimdIsa resolve() noexcept {
  return simd_isa_from_env_value(std::getenv("ARACHNET_SIMD_ISA"));
}

// kGeneric+1 .. stored as isa+1 so 0 means "not resolved yet".
std::atomic<int> g_active{0};

}  // namespace

const CpuFeatures& detect_cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

std::optional<SimdIsa> parse_simd_isa(std::string_view name) noexcept {
  if (name == "generic") return SimdIsa::kGeneric;
  if (name == "neon") return SimdIsa::kNeon;
  if (name == "avx2") return SimdIsa::kAvx2;
  return std::nullopt;
}

SimdIsa simd_isa_from_env_value(const char* value) noexcept {
  const CpuFeatures& f = detect_cpu_features();
  if (value == nullptr || *value == '\0') return best_supported(f);
  if (const auto parsed = parse_simd_isa(value)) return clamp(*parsed, f);
  ARACHNET_LOG_WARN("kernels",
                    "unrecognized ARACHNET_SIMD_ISA value; auto-detecting",
                    {"value", value},
                    {"fallback", to_string(best_supported(f))},
                    {"accepted", "generic|neon|avx2"});
  return best_supported(f);
}

SimdIsa active_simd_isa() noexcept {
  int v = g_active.load(std::memory_order_acquire);
  if (v == 0) {
    const SimdIsa isa = resolve();
    v = static_cast<int>(isa) + 1;
    int expected = 0;
    if (!g_active.compare_exchange_strong(expected, v,
                                          std::memory_order_acq_rel)) {
      v = expected;
    }
  }
  return static_cast<SimdIsa>(v - 1);
}

void force_simd_isa(SimdIsa isa) noexcept {
  const SimdIsa clamped = clamp(isa, detect_cpu_features());
  g_active.store(static_cast<int>(clamped) + 1, std::memory_order_release);
}

const char* to_string(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return "generic";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "generic";
}

std::string cpu_feature_string() {
  const CpuFeatures& f = detect_cpu_features();
  std::string out;
  const auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.neon, "neon");
  if (out.empty()) out = "baseline";
  return out;
}

}  // namespace arachnet::dsp
