// Tile-boundary split tests. The DDC, the block FIR stages and the reader
// chains run every block as dsp::kFirTile tiles, so what comes out must
// not depend on where the caller's block boundaries fall relative to
// those tiles. Each test feeds one capture as a single call and again in
// fixed-size pieces around the tile size (1, T-1, T, T+1, 3T+7) and at
// DAQ block sizes (10 000, 100 000): output counts and decimation phase
// must be identical, IQ within the per-policy tolerance of DESIGN.md §7
// (scalar exact, simd 1e-5; exact for whole-tile pieces),
// and decoded packets — payloads, CRC verdicts and timestamps —
// identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/tile_window.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet;
using cplx = std::complex<double>;
using dsp::KernelPolicy;

constexpr std::size_t kT = dsp::kFirTile;
constexpr std::size_t kSplits[] = {1,      kT - 1, kT,     kT + 1,
                                   3 * kT + 7, 10'000, 100'000};
constexpr KernelPolicy kPolicies[] = {KernelPolicy::kScalar,
                                      KernelPolicy::kSimd};

// The per-policy IQ tolerance the parity tests already hold each path to
// (SimdParity: simd 1e-5); scalar runs sample by sample and must match
// exactly.
double iq_tolerance(KernelPolicy policy) {
  return policy == KernelPolicy::kSimd ? 1e-5 : 0.0;
}

// Calls `feed(offset, length)` over [0, total) in pieces of `piece`.
template <typename Feed>
void feed_in_pieces(std::size_t total, std::size_t piece, Feed&& feed) {
  for (std::size_t off = 0; off < total; off += piece) {
    feed(off, std::min(piece, total - off));
  }
}

// Four single-tag replies back to back, one per 0.32 s window (1.28 s,
// 640 000 samples): several packets at many tile alignments.
std::vector<double> baseband_capture() {
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{77};
  std::vector<double> wave;
  for (int i = 0; i < 4; ++i) {
    acoustic::BackscatterSource src;
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(i + 1),
                            .payload = static_cast<std::uint16_t>(0x300 + i)};
    src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    src.chip_rate = 375.0;
    src.start_s = 0.03;
    src.amplitude = 0.2;
    src.phase_rad = 1.2;
    const auto part = synth.synthesize({src}, 0.32, rng);
    wave.insert(wave.end(), part.begin(), part.end());
  }
  return wave;
}

// One tag per subcarrier of a four-channel FDMA bank.
std::vector<double> fdma_capture() {
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 4; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, 0.3, rng);
}

TEST(TileSplit, DdcOutputIndependentOfBlockBoundaries) {
  const auto wave = baseband_capture();
  for (const KernelPolicy policy : kPolicies) {
    dsp::Ddc::Params p;
    p.kernels = policy;
    dsp::Ddc whole{p};
    std::vector<cplx> want;
    whole.process(std::span<const double>{wave}, want);
    ASSERT_EQ(want.size(), wave.size() / p.decimation);
    for (const std::size_t piece : kSplits) {
      // Pieces of whole tiles run the very tiles the one call does, so
      // they reproduce its IQ bit for bit under every policy.
      const double tol = piece % kT == 0 ? 0.0 : iq_tolerance(policy);
      dsp::Ddc split{p};
      std::vector<cplx> got;
      feed_in_pieces(wave.size(), piece, [&](std::size_t off, std::size_t n) {
        split.process(std::span<const double>{wave}.subspan(off, n), got);
      });
      const auto where = ::testing::Message()
                         << dsp::to_string(policy) << " pieces of " << piece;
      ASSERT_EQ(got.size(), want.size()) << where;
      ASSERT_EQ(split.decimation_phase(), whole.decimation_phase()) << where;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got[i].real(), want[i].real(), tol)
            << where << ", iq sample " << i;
        ASSERT_NEAR(got[i].imag(), want[i].imag(), tol)
            << where << ", iq sample " << i;
      }
    }
  }
}

TEST(TileSplit, RxChainPacketsIndependentOfBlockBoundaries) {
  const auto wave = baseband_capture();
  for (const KernelPolicy policy : kPolicies) {
    reader::RxChain::Params p;
    p.ddc.kernels = policy;
    reader::RxChain whole{p};
    whole.process(wave.data(), wave.size());
    ASSERT_GE(whole.packets().size(), 3u) << dsp::to_string(policy);
    for (const std::size_t piece : kSplits) {
      reader::RxChain split{p};
      feed_in_pieces(wave.size(), piece, [&](std::size_t off, std::size_t n) {
        split.process(wave.data() + off, n);
      });
      const auto where = ::testing::Message()
                         << dsp::to_string(policy) << " pieces of " << piece;
      EXPECT_EQ(split.samples_consumed(), whole.samples_consumed()) << where;
      EXPECT_EQ(split.bits_decoded(), whole.bits_decoded()) << where;
      EXPECT_EQ(split.crc_failures(), whole.crc_failures()) << where;
      ASSERT_EQ(split.packets().size(), whole.packets().size()) << where;
      for (std::size_t i = 0; i < whole.packets().size(); ++i) {
        EXPECT_EQ(split.packets()[i].packet, whole.packets()[i].packet)
            << where << ", packet " << i;
        EXPECT_EQ(split.packets()[i].time_s, whole.packets()[i].time_s)
            << where << ", packet " << i;
      }
    }
  }
}

void expect_fdma_split_invariant(reader::FdmaRxChain::BankPolicy bank) {
  const auto wave = fdma_capture();
  for (const KernelPolicy policy : kPolicies) {
    reader::FdmaRxChain::Params p;
    p.ddc.decimation = 8;
    p.workers = 1;
    p.kernels = policy;
    p.bank = bank;
    for (int k = 0; k < 4; ++k) p.channels.push_back({3000.0 + 1500.0 * k});
    reader::FdmaRxChain whole{p};
    ASSERT_EQ(whole.active_bank(), bank);
    whole.process(wave.data(), wave.size());
    const auto want = whole.drain_packets();
    ASSERT_GE(want.size(), 3u) << dsp::to_string(policy);
    for (const std::size_t piece : kSplits) {
      reader::FdmaRxChain split{p};
      feed_in_pieces(wave.size(), piece, [&](std::size_t off, std::size_t n) {
        split.process(wave.data() + off, n);
      });
      const auto where = ::testing::Message()
                         << dsp::to_string(policy) << " pieces of " << piece;
      for (std::size_t c = 0; c < whole.channel_count(); ++c) {
        const auto a = whole.channel_stats(c);
        const auto b = split.channel_stats(c);
        EXPECT_EQ(b.iq_samples, a.iq_samples) << where << ", channel " << c;
        EXPECT_EQ(b.bits, a.bits) << where << ", channel " << c;
        EXPECT_EQ(b.frames_ok, a.frames_ok) << where << ", channel " << c;
        EXPECT_EQ(b.crc_failures, a.crc_failures)
            << where << ", channel " << c;
      }
      const auto got = split.drain_packets();
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].packet, want[i].packet) << where << ", packet " << i;
        EXPECT_EQ(got[i].channel, want[i].channel)
            << where << ", packet " << i;
        EXPECT_EQ(got[i].time_s, want[i].time_s) << where << ", packet " << i;
      }
    }
  }
}

TEST(TileSplit, FdmaPerChannelBankPacketsIndependentOfBlockBoundaries) {
  expect_fdma_split_invariant(reader::FdmaRxChain::BankPolicy::kPerChannel);
}

TEST(TileSplit, FdmaChannelizerBankPacketsIndependentOfBlockBoundaries) {
  expect_fdma_split_invariant(reader::FdmaRxChain::BankPolicy::kChannelizer);
}

}  // namespace
