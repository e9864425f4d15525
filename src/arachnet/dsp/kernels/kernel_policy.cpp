#include "arachnet/dsp/kernels/kernel_policy.hpp"

#include <cstdlib>

#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/telemetry/log.hpp"

namespace arachnet::dsp {

std::optional<KernelPolicy> parse_kernel_policy(
    std::string_view name) noexcept {
  if (name == "scalar") return KernelPolicy::kScalar;
  if (name == "block") return KernelPolicy::kBlock;
  if (name == "simd") return KernelPolicy::kSimd;
  return std::nullopt;
}

namespace {

/// kSimd only where it measured a win over kBlock: the AVX2 and AVX-512
/// tiers. The portable tier loses to kBlock and NEON is unmeasured.
KernelPolicy cpu_default_kernel_policy() noexcept {
  const SimdIsa isa = active_simd_isa();
  return isa == SimdIsa::kAvx2 || isa == SimdIsa::kAvx512
             ? KernelPolicy::kSimd
             : KernelPolicy::kBlock;
}

}  // namespace

KernelPolicy kernel_policy_from_env_value(const char* value) noexcept {
  const KernelPolicy fallback = cpu_default_kernel_policy();
  if (value == nullptr || *value == '\0') return fallback;
  if (const auto parsed = parse_kernel_policy(value)) return *parsed;
  ARACHNET_LOG_WARN("kernels",
                    "unrecognized ARACHNET_KERNEL_POLICY value; falling back",
                    {"value", value}, {"fallback", to_string(fallback)},
                    {"accepted", "scalar|block|simd"});
  return fallback;
}

KernelPolicy default_kernel_policy() noexcept {
  static const KernelPolicy policy =
      kernel_policy_from_env_value(std::getenv("ARACHNET_KERNEL_POLICY"));
  return policy;
}

const char* to_string(KernelPolicy policy) noexcept {
  switch (policy) {
    case KernelPolicy::kScalar:
      return "scalar";
    case KernelPolicy::kBlock:
      return "block";
    case KernelPolicy::kSimd:
      return "simd";
  }
  return "block";
}

}  // namespace arachnet::dsp
