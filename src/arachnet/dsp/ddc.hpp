#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/fir_kernels.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"

namespace arachnet::dsp {

/// Digital down-converter: mixes the real 500 kS/s DAQ stream with a
/// numerically controlled oscillator at the carrier frequency, low-pass
/// filters the product, and decimates. Output is complex baseband IQ at
/// sample_rate / decimation.
///
/// This is the first block of the paper's reader software chain
/// ("down conversion, ... filtering, decimation", Sec. 6.1).
///
/// Three implementations live behind Params::kernels (see KernelPolicy):
/// the scalar reference path (per-sample cos/sin mixer + streaming FIR),
/// the block-kernel path (phasor-recurrence NCO + one-pass polyphase
/// decimator) which produces the same IQ to rounding tolerance at a
/// fraction of the cost, and the simd path (float32 vector lanes with
/// runtime ISA dispatch, double accumulation at the decimation points)
/// which matches to float32 tolerance. The decimation grid is identical
/// across all policies. The block and simd paths run a block as kFirTile
/// tiles, the NCO writing each straight into the decimator's window, so
/// their scratch does not grow with the caller's block size.
class Ddc {
 public:
  struct Params {
    double sample_rate_hz = 500e3;
    double carrier_hz = 90e3;
    std::size_t decimation = 16;   ///< output rate 31.25 kS/s by default
    double cutoff_hz = 6e3;        ///< anti-alias + modulation bandwidth
    std::size_t taps = 129;
    KernelPolicy kernels = default_kernel_policy();
  };

  explicit Ddc(Params params);

  /// Processes a block of real samples; returns the decimated IQ samples
  /// produced (0 or more per call). Allocating wrapper around the span
  /// overload.
  std::vector<std::complex<double>> process(const std::vector<double>& block);

  /// Span-in, caller-owned-out overload for allocation-free steady state:
  /// appends the produced IQ samples to `out` (which the caller clears and
  /// reuses across blocks) and returns how many were appended.
  std::size_t process(std::span<const double> in,
                      std::vector<std::complex<double>>& out);

  /// Pushes a single sample; yields an IQ sample every `decimation` inputs.
  /// Always runs the scalar path — single-sample streaming has no block to
  /// batch — but shares decimator state with process(), so the two can be
  /// mixed freely.
  std::optional<std::complex<double>> push(double sample);

  double output_rate_hz() const noexcept {
    return params_.sample_rate_hz / static_cast<double>(params_.decimation);
  }

  /// Adjusts the NCO (e.g. after frequency-offset calibration). Phase is
  /// continuous across the change.
  void set_carrier(double hz) noexcept;

  /// Raw samples consumed since the last decimated output, in
  /// [0, decimation) — lets block consumers map each produced IQ sample
  /// back to the exact raw-sample index that emitted it.
  std::size_t decimation_phase() const noexcept {
    switch (params_.kernels) {
      case KernelPolicy::kBlock:
        return decimator_.phase();
      case KernelPolicy::kSimd:
        return decimator_s_.phase();
      case KernelPolicy::kScalar:
        break;
    }
    return decim_count_;
  }

  void reset();

  const Params& params() const noexcept { return params_; }

 private:
  /// Shares one low-pass design between the three policies' filters.
  Ddc(Params params, const std::vector<double>& coeffs);

  /// Block/simd paths: mixes `in` tile by tile into the decimator's
  /// window and writes the survivors (at most in.size() / decimation + 1)
  /// to `out`. Returns how many.
  std::size_t run_kernels(std::span<const double> in,
                          std::complex<double>* out);

  Params params_;
  FirFilter<std::complex<double>> lpf_;    ///< scalar-path filter state
  double phase_ = 0.0;
  double phase_step_ = 0.0;
  std::size_t decim_count_ = 0;
  // Block-kernel path: NCO phasor mixing each tile straight into the
  // polyphase decimator's window.
  PhasorNco nco_;
  FirBlockDecimator<std::complex<double>> decimator_;
  // Simd path: float32 lanes into the float32 decimator's window, double
  // outputs.
  simd::SimdNco nco_s_;
  simd::FirSimdDecimator decimator_s_;
};

/// Estimates a small carrier-frequency offset from decimated IQ: the slope
/// of the unwrapped phase of the (DC-dominated) leak component. Returns Hz.
double estimate_frequency_offset(const std::vector<std::complex<double>>& iq,
                                 double iq_rate_hz);

/// Derotates IQ by `-offset_hz` (frequency-offset calibration block).
std::vector<std::complex<double>> derotate(
    const std::vector<std::complex<double>>& iq, double iq_rate_hz,
    double offset_hz, KernelPolicy policy = default_kernel_policy());

}  // namespace arachnet::dsp
