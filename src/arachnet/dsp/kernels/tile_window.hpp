#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace arachnet::dsp {

/// Input samples per tile of every streaming block FIR stage. A
/// complex<double> tile plus the 128-sample history of the DDC's 129-tap
/// low-pass is ~18 KiB, so the window a stage runs over stays in L1.
inline constexpr std::size_t kFirTile = 1024;

/// The window every streaming block FIR stage runs over: the newest
/// `history` samples of the stream so far (taps - 1 for an FIR), followed
/// by room for one tile of up to kFirTile new samples. A block of any
/// length streams through it a tile at a time, so a stage's scratch is
/// (history + kFirTile) samples whatever the caller's block size.
///
/// The buffer is allocated (zeroed) on the first stream() call, not at
/// construction: an object that holds more windows than it runs (the
/// channelizer keeps one per fold precision) only pays for the one it
/// streams through.
///
/// `Width` is the storage elements per sample (2 for interleaved float32
/// complex).
template <typename Elem, std::size_t Width = 1>
class TileWindow {
 public:
  explicit TileWindow(std::size_t history) : history_(history) {}

  /// Streams `n` samples through the window. Per tile of `len` samples
  /// starting at stream offset `off`: `fill(dst, off, len)` writes the new
  /// samples (len * Width elements) at `dst`, right behind the history;
  /// `run(win, off, len)` then consumes the window win[0 .. (history +
  /// len) * Width), oldest sample first; finally the newest `history`
  /// samples slide to the front for the next tile.
  template <typename Fill, typename Run>
  void stream(std::size_t n, Fill&& fill, Run&& run) {
    buf_.resize((history_ + kFirTile) * Width);  // no-op after first use
    Elem* w = buf_.data();
    for (std::size_t off = 0; off < n; off += kFirTile) {
      const std::size_t len = std::min(kFirTile, n - off);
      fill(w + history_ * Width, off, len);
      run(static_cast<const Elem*>(w), off, len);
      std::copy(w + len * Width, w + (history_ + len) * Width, w);
    }
  }

  /// The stream() fill for a stage fed from a plain buffer: copies input
  /// samples [off, off+len) of `in`.
  static auto copy_from(const Elem* in) {
    return [in](Elem* dst, std::size_t off, std::size_t len) {
      std::copy(in + off * Width, in + (off + len) * Width, dst);
    };
  }

  /// Zeroes the history (a restarted stream sees silence before it).
  void reset() { std::fill(buf_.begin(), buf_.end(), Elem{}); }

 private:
  std::size_t history_;
  std::vector<Elem> buf_;
};

}  // namespace arachnet::dsp
