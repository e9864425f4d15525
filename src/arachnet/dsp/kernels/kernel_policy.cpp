#include "arachnet/dsp/kernels/kernel_policy.hpp"

#include <cstdlib>

#include "arachnet/telemetry/log.hpp"

namespace arachnet::dsp {

std::optional<KernelPolicy> parse_kernel_policy(
    std::string_view name) noexcept {
  if (name == "scalar") return KernelPolicy::kScalar;
  if (name == "simd") return KernelPolicy::kSimd;
  return std::nullopt;
}

KernelPolicy kernel_policy_from_env_value(const char* value) noexcept {
  constexpr KernelPolicy kFallback = KernelPolicy::kSimd;
  if (value == nullptr || *value == '\0') return kFallback;
  if (const auto parsed = parse_kernel_policy(value)) return *parsed;
  ARACHNET_LOG_WARN("kernels",
                    "unrecognized ARACHNET_KERNEL_POLICY value; falling back",
                    {"value", value}, {"fallback", to_string(kFallback)},
                    {"accepted", "scalar|simd"});
  return kFallback;
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
    case KernelPolicy::kSimd:
      return "simd";
  }
  return "unknown";
}

}  // namespace arachnet::dsp
