#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace arachnet::dsp {

/// What the running CPU can do, probed once per process. On x86-64 this
/// comes from CPUID via __builtin_cpu_supports; on aarch64 the baseline
/// ABI guarantees NEON, so no HWCAP read is needed for the features we
/// dispatch on.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool neon = false;
};

/// Cached probe result (the probe itself runs once, on first call).
const CpuFeatures& detect_cpu_features() noexcept;

/// The instruction-set tier the kSimd kernel table was resolved to.
///
///   kGeneric — portable GCC vector-extension code compiled for the
///     build's baseline ISA (SSE2 on x86-64), its 8-lane vectors held as
///     register pairs. Always available; this is the tier when the CPU
///     lacks AVX2 or the build was configured with
///     -DARACHNET_DISABLE_SIMD, and it is the fast path there.
///   kNeon — same portable code on aarch64, where the compiler lowers
///     the vector lanes straight to NEON (reported distinctly so bench
///     sidecars attribute numbers to the right silicon). Compiled, but
///     not measured on any host this project has benchmarked.
///   kAvx2 — x86-64 function-multiversioned table built with
///     target("avx2,fma"): 8-wide float32 inner loops in one 256-bit
///     register. CPUs with AVX-512 run this tier too: a separate AVX-512
///     build of the same 256-bit bodies measured no faster.
enum class SimdIsa {
  kGeneric,
  kNeon,
  kAvx2,
};

/// The tier the process resolved at first use: the best ISA the CPU
/// supports, unless the ARACHNET_SIMD_ISA environment variable ("generic",
/// "neon" or "avx2") caps it lower. Requests the CPU cannot honor degrade
/// to the best supported tier rather than fault — kSimd never crashes on a
/// missing ISA.
SimdIsa active_simd_isa() noexcept;

/// Test hook: re-resolve the active tier, clamped to what the CPU
/// actually supports (forcing kAvx2 on a machine without AVX2 yields the
/// portable tier). Takes effect for subsequent kernel-table lookups.
void force_simd_isa(SimdIsa isa) noexcept;

/// Parses a tier name ("generic"/"neon"/"avx2"); nullopt if unrecognized.
std::optional<SimdIsa> parse_simd_isa(std::string_view name) noexcept;

/// The mapping active_simd_isa() applies to one ARACHNET_SIMD_ISA value:
/// parse and clamp to hardware, or WARN (component "kernels", naming the
/// bad value, the fallback and the accepted set) and auto-detect. Exposed
/// so the warning path is testable without re-latching the process-wide
/// resolution.
SimdIsa simd_isa_from_env_value(const char* value) noexcept;

/// "generic", "neon" or "avx2".
const char* to_string(SimdIsa isa) noexcept;

/// Feature-flag summary for telemetry rows, e.g. "sse2+avx+avx2+fma".
std::string cpu_feature_string();

}  // namespace arachnet::dsp
