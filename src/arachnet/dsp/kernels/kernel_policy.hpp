#pragma once

#include <optional>
#include <string_view>

namespace arachnet::dsp {

/// Selects the implementation of the reader's hot DSP loops.
///
/// Every rewired call site (Ddc, derotate, the FDMA channel mixers,
/// UplinkWaveformSynth) keeps its original per-sample scalar code behind
/// this switch, so the faster tiers are testable against it. The contract
/// per tier:
///   kBlock — decoded packets and recovered bits identical to kScalar,
///     raw IQ equal to numeric tolerance (the kernels change
///     transcendental evaluation and summation order, nothing else).
///   kSimd — decoded packets, payloads and CRCs identical to kScalar;
///     packet timestamps within a few decimated samples (the float32
///     lane path can move a slicer crossing by ±1 sample, far inside the
///     FM0 run-classification margin). IQ agrees to float32 tolerance.
///
/// The process default is kSimd where the kSimd table resolves to an AVX2
/// or AVX-512 tier, and kBlock everywhere else (the portable tier, NEON
/// and -DARACHNET_DISABLE_SIMD builds); see default_kernel_policy().
enum class KernelPolicy {
  kScalar,  ///< reference per-sample loops (std::cos/std::sin per sample)
  kBlock,   ///< phasor-recurrence NCOs + folded/contiguous FIR block kernels
  kSimd,    ///< float32 vector lanes + runtime ISA dispatch (see simd/)
};

/// Process-wide default, used by every Params struct that carries a policy.
/// Resolved once from the ARACHNET_KERNEL_POLICY environment variable
/// ("scalar", "block" or "simd"). Unset means the CPU default: kSimd when
/// active_simd_isa() is kAvx2 or kAvx512, kBlock otherwise. Unrecognized
/// values fall back to that same CPU default after a one-shot structured
/// WARN naming the value and the fallback.
KernelPolicy default_kernel_policy() noexcept;

/// Parses a policy name ("scalar"/"block"/"simd"); nullopt if unrecognized.
std::optional<KernelPolicy> parse_kernel_policy(std::string_view name) noexcept;

/// The mapping default_kernel_policy() applies to one env-var value:
/// parse; for an empty or null value return the CPU default (kSimd on
/// AVX2/AVX-512, else kBlock, read from the active ISA at call time); for
/// an unrecognized value WARN (component "kernels", naming the bad value
/// and the fallback) and return the CPU default. Exposed so the warning
/// path and the ISA rule are testable without re-latching the
/// process-wide default.
KernelPolicy kernel_policy_from_env_value(const char* value) noexcept;

/// "scalar", "block" or "simd" (for logs and bench sidecars).
const char* to_string(KernelPolicy policy) noexcept;

}  // namespace arachnet::dsp
