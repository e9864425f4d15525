#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arachnet/dsp/kernels/tile_window.hpp"

namespace arachnet::dsp {

#if defined(__GNUC__) || defined(__clang__)
#define ARACHNET_RESTRICT __restrict__
#else
#define ARACHNET_RESTRICT
#endif

/// Block FIR kernels for the reader hot path. All kernels take the filter
/// window as a contiguous oldest-first stretch `x[0..taps)` (x[taps-1] is
/// the newest sample), so the compiler sees plain unit-stride loads it can
/// autovectorize — no circular indexing on the hot path.
///
/// The `_symmetric` variants exploit linear phase (h[k] == h[taps-1-k],
/// which holds for every windowed-sinc design in this codebase) by folding
/// the window ends together, halving the multiply count. Folding changes
/// the floating-point summation order, so outputs agree with the plain
/// kernels to rounding tolerance, not bit-exactly — the decoders downstream
/// are insensitive to this by construction (see KernelPolicy).

/// Plain convolution: sum_k h[k] * x[taps-1-k] (newest-to-oldest, the same
/// accumulation order as the scalar FirFilter::value()).
inline double fir_dot(const double* ARACHNET_RESTRICT x,
                      const double* ARACHNET_RESTRICT h,
                      std::size_t taps) noexcept {
  double acc = 0.0;
  for (std::size_t k = 0; k < taps; ++k) acc += h[k] * x[taps - 1 - k];
  return acc;
}

inline std::complex<double> fir_dot(
    const std::complex<double>* ARACHNET_RESTRICT x,
    const double* ARACHNET_RESTRICT h, std::size_t taps) noexcept {
  // Interleaved (re, im) view: std::complex<double> is array-compatible
  // with double[2] by the standard.
  const double* ARACHNET_RESTRICT xs = reinterpret_cast<const double*>(x);
  double re = 0.0, im = 0.0;
  for (std::size_t k = 0; k < taps; ++k) {
    const double c = h[k];
    re += c * xs[2 * (taps - 1 - k)];
    im += c * xs[2 * (taps - 1 - k) + 1];
  }
  return {re, im};
}

/// Folded symmetric convolution: taps/2 multiplies. Requires
/// h[k] == h[taps-1-k] (to rounding). The accumulators are unrolled two
/// ways so consecutive products retire on independent dependency chains —
/// a folded dot is otherwise latency-bound on a single running sum.
inline double fir_dot_symmetric(const double* ARACHNET_RESTRICT x,
                                const double* ARACHNET_RESTRICT h,
                                std::size_t taps) noexcept {
  const std::size_t half = taps / 2;
  double a0 = 0.0, a1 = 0.0;
  std::size_t j = 0;
  for (; j + 2 <= half; j += 2) {
    a0 += h[j] * (x[j] + x[taps - 1 - j]);
    a1 += h[j + 1] * (x[j + 1] + x[taps - 2 - j]);
  }
  if (j < half) a0 += h[j] * (x[j] + x[taps - 1 - j]);
  double acc = a0 + a1;
  if (taps & 1) acc += h[half] * x[half];
  return acc;
}

inline std::complex<double> fir_dot_symmetric(
    const std::complex<double>* ARACHNET_RESTRICT x,
    const double* ARACHNET_RESTRICT h, std::size_t taps) noexcept {
  const double* ARACHNET_RESTRICT xs = reinterpret_cast<const double*>(x);
  const std::size_t half = taps / 2;
  double re0 = 0.0, re1 = 0.0, im0 = 0.0, im1 = 0.0;
  std::size_t j = 0;
  for (; j + 2 <= half; j += 2) {
    const double c0 = h[j];
    const double c1 = h[j + 1];
    re0 += c0 * (xs[2 * j] + xs[2 * (taps - 1 - j)]);
    im0 += c0 * (xs[2 * j + 1] + xs[2 * (taps - 1 - j) + 1]);
    re1 += c1 * (xs[2 * j + 2] + xs[2 * (taps - 2 - j)]);
    im1 += c1 * (xs[2 * j + 3] + xs[2 * (taps - 2 - j) + 1]);
  }
  if (j < half) {
    const double c = h[j];
    re0 += c * (xs[2 * j] + xs[2 * (taps - 1 - j)]);
    im0 += c * (xs[2 * j + 1] + xs[2 * (taps - 1 - j) + 1]);
  }
  double re = re0 + re1, im = im0 + im1;
  if (taps & 1) {
    re += h[half] * xs[2 * half];
    im += h[half] * xs[2 * half + 1];
  }
  return {re, im};
}

/// True when the coefficient set is symmetric to rounding tolerance —
/// windowed-sinc designs are mathematically symmetric but their two halves
/// are computed through different argument reductions, so exact equality
/// cannot be assumed.
inline bool is_symmetric(const std::vector<double>& h) noexcept {
  const std::size_t n = h.size();
  double scale = 0.0;
  for (double c : h) scale = std::max(scale, std::abs(c));
  for (std::size_t k = 0; k < n / 2; ++k) {
    if (std::abs(h[k] - h[n - 1 - k]) > 1e-12 * scale) return false;
  }
  return true;
}

/// Streaming block FIR filter: carries taps-1 samples of history and runs
/// a folded (or plain) contiguous dot per output over a TileWindow, one
/// kFirTile tile at a time. In-place operation (out == in) is allowed —
/// each tile of input is consumed into the window before its outputs are
/// written.
template <typename Sample>
class FirBlockFilter {
 public:
  explicit FirBlockFilter(std::vector<double> coeffs)
      : coeffs_(std::move(coeffs)),
        symmetric_(is_symmetric(coeffs_)),
        window_(coeffs_.empty() ? 0 : coeffs_.size() - 1) {
    if (coeffs_.empty()) {
      throw std::invalid_argument("FirBlockFilter: empty coefficients");
    }
  }

  void process(const Sample* in, Sample* out, std::size_t n) {
    stream(n, TileWindow<Sample>::copy_from(in), out);
  }

  /// Filters `n` samples that `fill(dst, off, len)` writes straight into
  /// the window, tile by tile (input samples [off, off+len) to `dst`) — a
  /// mixer fused in front of the filter needs no block buffer of its own.
  /// Writes n outputs to `out`.
  template <typename Fill>
  void stream(std::size_t n, Fill&& fill, Sample* out) {
    const std::size_t taps = coeffs_.size();
    const double* h = coeffs_.data();
    window_.stream(n, fill,
                   [&](const Sample* w, std::size_t off, std::size_t len) {
                     Sample* o = out + off;
                     if (symmetric_) {
                       for (std::size_t i = 0; i < len; ++i) {
                         o[i] = fir_dot_symmetric(w + i, h, taps);
                       }
                     } else {
                       for (std::size_t i = 0; i < len; ++i) {
                         o[i] = fir_dot(w + i, h, taps);
                       }
                     }
                   });
  }

  void reset() { window_.reset(); }

  std::size_t taps() const noexcept { return coeffs_.size(); }

 private:
  std::vector<double> coeffs_;
  bool symmetric_;
  TileWindow<Sample> window_;
};

/// Polyphase-style block decimating FIR: computes the filter dot product
/// only at the samples that survive decimation, in one pass over each
/// tile of a TileWindow. Replaces the per-sample feed()/value() pair of
/// the scalar Ddc path: the delay line is never written twice per sample,
/// and between output points no work happens at all.
///
/// Output alignment matches the scalar decimator exactly: with `phase()`
/// samples already consumed since the last output, the next output fires
/// once `decimation - phase()` further samples arrive.
template <typename Sample>
class FirBlockDecimator {
 public:
  FirBlockDecimator(std::vector<double> coeffs, std::size_t decimation)
      : coeffs_(std::move(coeffs)),
        decimation_(decimation),
        symmetric_(is_symmetric(coeffs_)),
        window_(coeffs_.empty() ? 0 : coeffs_.size() - 1) {
    if (coeffs_.empty()) {
      throw std::invalid_argument("FirBlockDecimator: empty coefficients");
    }
    if (decimation_ == 0) {
      throw std::invalid_argument("FirBlockDecimator: decimation must be >= 1");
    }
  }

  /// Filters + decimates `n` samples from `in`, writing the surviving
  /// outputs to `out` (caller provides space for at least
  /// n / decimation + 1 samples). Returns the number written.
  std::size_t process(const Sample* in, std::size_t n, Sample* out) {
    return stream(n, TileWindow<Sample>::copy_from(in), out);
  }

  /// As process(), over `n` samples that `fill(dst, off, len)` writes
  /// straight into the window tile by tile (see FirBlockFilter::stream).
  template <typename Fill>
  std::size_t stream(std::size_t n, Fill&& fill, Sample* out) {
    const std::size_t taps = coeffs_.size();
    const double* h = coeffs_.data();
    std::size_t count = 0;
    window_.stream(n, fill,
                   [&](const Sample* w, std::size_t, std::size_t len) {
                     // First output position: the tile index at which the
                     // running sample counter reaches `decimation_`.
                     const std::size_t first = decimation_ - 1 - phase_;
                     if (symmetric_) {
                       for (std::size_t i = first; i < len; i += decimation_) {
                         out[count++] = fir_dot_symmetric(w + i, h, taps);
                       }
                     } else {
                       for (std::size_t i = first; i < len; i += decimation_) {
                         out[count++] = fir_dot(w + i, h, taps);
                       }
                     }
                     phase_ = (phase_ + len) % decimation_;
                   });
    return count;
  }

  void reset() {
    window_.reset();
    phase_ = 0;
  }

  std::size_t taps() const noexcept { return coeffs_.size(); }
  std::size_t decimation() const noexcept { return decimation_; }

  /// Samples consumed since the last emitted output, in [0, decimation).
  std::size_t phase() const noexcept { return phase_; }

 private:
  std::vector<double> coeffs_;
  std::size_t decimation_;
  bool symmetric_;
  TileWindow<Sample> window_;
  std::size_t phase_ = 0;
};

#undef ARACHNET_RESTRICT

}  // namespace arachnet::dsp
