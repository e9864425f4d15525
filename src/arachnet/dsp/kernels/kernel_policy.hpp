#pragma once

#include <optional>
#include <string_view>

namespace arachnet::dsp {

/// Selects the implementation of the reader's hot DSP loops.
///
/// Every rewired call site (Ddc, derotate, the FDMA channel mixers, the
/// channelizer, UplinkWaveformSynth) keeps its original per-sample scalar
/// code behind this switch, so the fast path is testable against it:
///   kScalar — the reference oracle: per-sample std::cos/std::sin mixers
///     and double-precision streaming FIRs.
///   kSimd — the fast path and the process default: float32 vector lanes
///     with runtime ISA dispatch (simd/, cpu_dispatch.hpp). Decoded
///     packets, payloads and CRC verdicts are identical to kScalar;
///     packet timestamps agree within a few decimated samples (the
///     float32 lane path can move a slicer crossing by ±1 sample, far
///     inside the FM0 run-classification margin). IQ agrees to float32
///     tolerance. This is the DESIGN.md §7 parity contract.
enum class KernelPolicy {
  kScalar,  ///< reference per-sample loops (std::cos/std::sin per sample)
  kSimd,    ///< float32 vector lanes + runtime ISA dispatch (see simd/)
};

/// Process-wide default, used by every Params struct that carries a policy.
/// Resolved once from the ARACHNET_KERNEL_POLICY environment variable
/// ("scalar" or "simd"). Unset means kSimd on every CPU. Unrecognized
/// values fall back to kSimd after a one-shot structured WARN naming the
/// value and the fallback.
KernelPolicy default_kernel_policy() noexcept;

/// Parses a policy name ("scalar"/"simd"); nullopt if unrecognized.
std::optional<KernelPolicy> parse_kernel_policy(std::string_view name) noexcept;

/// The mapping default_kernel_policy() applies to one env-var value:
/// parse; for an empty or null value return kSimd; for an unrecognized
/// value WARN (component "kernels", naming the bad value and the
/// fallback) and return kSimd. Exposed so the warning path is testable
/// without re-latching the process-wide default.
KernelPolicy kernel_policy_from_env_value(const char* value) noexcept;

/// "scalar" or "simd" (for logs and bench sidecars); "unknown" for a value
/// outside the enumeration.
const char* to_string(KernelPolicy policy) noexcept;

}  // namespace arachnet::dsp
