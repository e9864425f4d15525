// Tests for the DSP kernel layer (dsp/kernels/): phasor-recurrence NCO
// accuracy and renormalization, cached FFT plans against a naive DFT, the
// polyphase channelizer, and — the load-bearing guarantee — that the
// scalar and simd kernel policies produce *identical decoded packets*
// through RxChain and the FDMA bank, across both bank front-ends (the
// DESIGN.md §7 parity contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <iterator>
#include <numbers>
#include <vector>

#include "arachnet/dsp/kernels/channelizer.hpp"

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/fft_plan.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet;
using std::complex;
using cplx = std::complex<double>;

constexpr double kPi = std::numbers::pi;

// ------------------------------------------------------------- PhasorNco

TEST(PhasorNco, TracksTrigOverLongRuns) {
  const double phase0 = 0.37;
  const double step = 0.0123456;
  dsp::PhasorNco nco{phase0, step};
  // Irregular chunk sizes straddle the renorm interval in every alignment.
  std::vector<cplx> buf;
  std::size_t i = 0;
  const std::size_t chunks[] = {1, 7, 511, 512, 513, 4096, 100000};
  for (std::size_t c : chunks) {
    buf.resize(c);
    nco.fill(buf.data(), c);
    for (std::size_t k = 0; k < c; ++k, ++i) {
      const double want = phase0 + static_cast<double>(i) * step;
      EXPECT_NEAR(buf[k].real(), std::cos(want), 1e-9) << "sample " << i;
      EXPECT_NEAR(buf[k].imag(), std::sin(want), 1e-9) << "sample " << i;
    }
  }
}

TEST(PhasorNco, AmplitudeStaysUnitForMillionsOfSamples) {
  dsp::PhasorNco nco{0.0, 1.13097335529232556};  // the 90 kHz default step
  std::vector<cplx> buf(4096);
  for (int c = 0; c < 256; ++c) nco.fill(buf.data(), buf.size());  // ~1M
  EXPECT_NEAR(std::abs(nco.phasor()), 1.0, 1e-12);
}

TEST(PhasorNco, MixMatchesPerSampleTrig) {
  sim::Rng rng{11};
  const double step = -0.71;
  std::vector<cplx> in(2000), out(2000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  dsp::PhasorNco nco{0.5, step};
  nco.mix(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ph = 0.5 + static_cast<double>(i) * step;
    const cplx want = in[i] * cplx{std::cos(ph), std::sin(ph)};
    EXPECT_NEAR(out[i].real(), want.real(), 1e-10);
    EXPECT_NEAR(out[i].imag(), want.imag(), 1e-10);
  }
}

TEST(PhasorNco, SetStepRetunesPhaseContinuously) {
  dsp::PhasorNco nco{0.0, 0.2};
  std::vector<cplx> buf(100);
  nco.fill(buf.data(), buf.size());
  const cplx before = nco.phasor();
  nco.set_step(0.05);  // retune mid-stream
  EXPECT_EQ(nco.phasor(), before);
  const cplx next = nco.next();
  EXPECT_EQ(next, before);
}

// -------------------------------------------------------------- FftPlan

std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> spec(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * kPi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += x[t] * cplx{std::cos(ang), std::sin(ang)};
    }
    spec[k] = acc;
  }
  return spec;
}

TEST(FftPlan, ForwardMatchesNaiveDft) {
  sim::Rng rng{9};
  std::vector<cplx> x(64);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const auto want = naive_dft(x);
  auto got = x;
  dsp::FftPlan::get(x.size())->forward(got);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-10);
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-10);
  }
}

TEST(FftPlan, ForwardRealMatchesComplexTransform) {
  sim::Rng rng{10};
  // 100 real samples zero-padded to the 128-point plan.
  std::vector<double> x(100);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  std::vector<cplx> full(128, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) full[i] = {x[i], 0.0};
  const auto want = naive_dft(full);
  std::vector<cplx> got;
  dsp::FftPlan::get(128)->forward_real(x.data(), x.size(), got);
  ASSERT_EQ(got.size(), 128u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-10) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-10) << "bin " << k;
  }
}

TEST(FftPlan, ForwardInverseRoundTrips) {
  sim::Rng rng{12};
  std::vector<cplx> x(256);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  auto y = x;
  const auto plan = dsp::FftPlan::get(x.size());
  plan->forward(y);
  plan->inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-12);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-12);
  }
}

TEST(FftPlan, CacheSharesOnePlanPerSize) {
  const auto a = dsp::FftPlan::get(1024);
  const auto b = dsp::FftPlan::get(1024);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), dsp::FftPlan::get(2048).get());
}

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan{12}, std::invalid_argument);
}

// ------------------------------------------------------------ Ddc parity

dsp::Ddc::Params ddc_params(dsp::KernelPolicy policy) {
  dsp::Ddc::Params p;
  p.kernels = policy;
  return p;
}

TEST(KernelParity, NegativeCarrierIsConjugateOfPositive) {
  // Regression for the one-sided scalar phase wrap: a negative carrier
  // walks the mixer phase downward, and without the symmetric wrap the
  // phase grows without bound while the positive twin wraps — their
  // outputs drift apart. With the fix the two runs are exact mirrors:
  // same real input, conjugate IQ, bit for bit.
  auto pos = ddc_params(dsp::KernelPolicy::kScalar);
  auto neg = pos;
  neg.carrier_hz = -pos.carrier_hz;
  dsp::Ddc ddc_pos{pos};
  dsp::Ddc ddc_neg{neg};
  sim::Rng rng{15};
  std::vector<double> in(100000);
  const double w = 2.0 * kPi * pos.carrier_hz / pos.sample_rate_hz;
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(w * static_cast<double>(i)) + rng.normal(0.0, 0.01);
  }
  const auto iq_pos = ddc_pos.process(in);
  const auto iq_neg = ddc_neg.process(in);
  ASSERT_EQ(iq_pos.size(), iq_neg.size());
  ASSERT_GT(iq_pos.size(), 6000u);
  for (std::size_t i = 0; i < iq_pos.size(); ++i) {
    EXPECT_NEAR(iq_neg[i].real(), iq_pos[i].real(), 1e-14) << "iq " << i;
    EXPECT_NEAR(iq_neg[i].imag(), -iq_pos[i].imag(), 1e-14) << "iq " << i;
  }
}

// ---------------------------------------------------------- Synth parity

acoustic::UplinkWaveformSynth::Params synth_params(dsp::KernelPolicy policy) {
  acoustic::UplinkWaveformSynth::Params p;
  p.ambient_amplitude = 0.02;
  p.kernels = policy;
  return p;
}

std::vector<acoustic::BackscatterSource> parity_sources() {
  std::vector<acoustic::BackscatterSource> srcs;
  // A chip-stream source at a rate that does not divide the sample rate,
  // starting off the sample grid.
  acoustic::BackscatterSource a;
  a.chips = phy::Fm0Encoder::encode_frame(
      phy::UlPacket{.tid = 3, .payload = 0x2A5}.serialize());
  a.chip_rate = 374.6;
  a.start_s = 0.0301237;
  a.amplitude = 0.2;
  a.phase_rad = 1.2;
  srcs.push_back(a);
  // A multi-level source with a different start and phase.
  acoustic::BackscatterSource b;
  b.levels = {0.4, 0.9, 0.35, 0.7, 0.5, 0.92, 0.38, 0.8};
  b.chip_rate = 1500.0;
  b.start_s = 0.011;
  b.amplitude = 0.15;
  b.phase_rad = -0.7;
  srcs.push_back(b);
  return srcs;
}

TEST(KernelParity, SynthesizerSimdMatchesScalar) {
  acoustic::UplinkWaveformSynth scalar{
      synth_params(dsp::KernelPolicy::kScalar)};
  acoustic::UplinkWaveformSynth simd{synth_params(dsp::KernelPolicy::kSimd)};
  sim::Rng rng_s{42}, rng_b{42};
  const auto srcs = parity_sources();
  for (int round = 0; round < 3; ++round) {
    const auto w_s = scalar.synthesize(srcs, 0.08, rng_s);
    const auto w_b = simd.synthesize(srcs, 0.08, rng_b);
    ASSERT_EQ(w_s.size(), w_b.size());
    for (std::size_t i = 0; i < w_s.size(); ++i) {
      ASSERT_NEAR(w_s[i], w_b[i], 1e-9) << "round " << round << " i " << i;
    }
  }
  EXPECT_DOUBLE_EQ(scalar.now(), simd.now());
  // Both paths must consume the RNG stream identically (one normal draw
  // per sample, in sample order) — the next draw from each twin agrees.
  EXPECT_DOUBLE_EQ(rng_s.normal(0.0, 1.0), rng_b.normal(0.0, 1.0));
}

// ------------------------------------------------- Packet-level parity

// Timestamp tolerance for kSimd decodes (DESIGN.md §7): float32 can move
// a slicer crossing by a decimated sample or two — two channelizer lane
// samples bound it with an order of magnitude to spare.
constexpr double kSimdTimeTol = 256e-6;

reader::RxChain::Params rx_params(dsp::KernelPolicy policy) {
  reader::RxChain::Params p;
  p.ddc.kernels = policy;
  return p;
}

TEST(KernelParity, RxChainDecodesIdenticalPacketsAcrossPolicies) {
  // The hard guarantee behind the policy switch: not "similar" decodes but
  // the same packets and bit counts, timestamps inside the float32 jitter
  // bound.
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{77};
  reader::RxChain scalar{rx_params(dsp::KernelPolicy::kScalar)};
  reader::RxChain simd{rx_params(dsp::KernelPolicy::kSimd)};
  for (int i = 0; i < 4; ++i) {
    acoustic::BackscatterSource src;
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(i + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x300 + i)};
    src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    src.chip_rate = 375.0;
    src.start_s = 0.03;
    src.amplitude = 0.2;
    src.phase_rad = 1.2;
    const auto wave = synth.synthesize({src}, 0.32, rng);
    // Feed both chains in awkward chunk sizes (coprime with the
    // decimation) so the simd path crosses many phase alignments.
    constexpr std::size_t kChunk = 7777;
    for (std::size_t off = 0; off < wave.size(); off += kChunk) {
      const std::size_t len = std::min(kChunk, wave.size() - off);
      const std::vector<double> piece(wave.begin() + off,
                                      wave.begin() + off + len);
      scalar.process(piece);
      simd.process(piece);
    }
  }
  EXPECT_EQ(scalar.samples_consumed(), simd.samples_consumed());
  EXPECT_EQ(scalar.bits_decoded(), simd.bits_decoded());
  EXPECT_EQ(scalar.crc_failures(), simd.crc_failures());
  ASSERT_GE(scalar.packets().size(), 3u);
  ASSERT_EQ(scalar.packets().size(), simd.packets().size());
  for (std::size_t i = 0; i < scalar.packets().size(); ++i) {
    EXPECT_EQ(scalar.packets()[i].packet, simd.packets()[i].packet);
    EXPECT_NEAR(scalar.packets()[i].time_s, simd.packets()[i].time_s,
                kSimdTimeTol);
  }
}

reader::FdmaRxChain::Params fdma_params(
    dsp::KernelPolicy policy, std::size_t workers,
    reader::FdmaRxChain::BankPolicy bank =
        reader::FdmaRxChain::BankPolicy::kPerChannel) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = workers;
  fp.kernels = policy;
  fp.bank = bank;  // pinned so each test exercises the bank it names
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

TEST(KernelParity, FdmaBankDecodesIdenticalPacketsAcrossPolicies) {
  // Scalar sequential bank vs simd parallel bank: policies and threading
  // composed, still the same packets in the same deterministic order.
  reader::FdmaRxChain scalar{fdma_params(dsp::KernelPolicy::kScalar, 1)};
  reader::FdmaRxChain simd{fdma_params(dsp::KernelPolicy::kSimd, 4)};
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 4; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  const auto wave = synth.synthesize(srcs, 0.3, rng);
  constexpr std::size_t kChunk = 20000;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, wave.size() - off);
    const std::vector<double> piece(wave.begin() + off,
                                    wave.begin() + off + len);
    scalar.process(piece);
    simd.process(piece);
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < scalar.channel_count(); ++c) {
    ASSERT_EQ(scalar.packets(c), simd.packets(c)) << "channel " << c;
    total += scalar.packets(c).size();
    const auto ss = scalar.channel_stats(c);
    const auto bs = simd.channel_stats(c);
    EXPECT_EQ(ss.iq_samples, bs.iq_samples);
    EXPECT_EQ(ss.bits, bs.bits);
    EXPECT_EQ(ss.frames_ok, bs.frames_ok);
    EXPECT_EQ(ss.crc_failures, bs.crc_failures);
  }
  EXPECT_GE(total, 3u);
  const auto merged_s = scalar.drain_packets();
  const auto merged_b = simd.drain_packets();
  ASSERT_EQ(merged_s.size(), merged_b.size());
  for (std::size_t i = 0; i < merged_s.size(); ++i) {
    EXPECT_EQ(merged_s[i].packet, merged_b[i].packet);
    EXPECT_EQ(merged_s[i].channel, merged_b[i].channel);
    EXPECT_NEAR(merged_s[i].time_s, merged_b[i].time_s, kSimdTimeTol);
  }
}

// ----------------------------------------------------------- Channelizer

// A channelizer sized like the FDMA bank sizes one: 62.5 kS/s IQ (the
// decimation-8 bank), 375 chip/s, four subcarriers one 1.5 kHz grid step
// apart.
constexpr double kChzrFs = 62500.0;
constexpr double kChzrChip = 375.0;

std::vector<double> chzr_centers() { return {3000.0, 4500.0, 6000.0, 7500.0}; }

dsp::PolyphaseChannelizer make_channelizer() {
  const auto centers = chzr_centers();
  const auto plan =
      dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip, centers);
  EXPECT_TRUE(plan.viable) << plan.reason;
  return dsp::PolyphaseChannelizer{{
      .sample_rate_hz = kChzrFs,
      .fft_size = plan.fft_size,
      .decimation = plan.decimation,
      .prototype = dsp::design_lowpass(plan.cutoff_hz, kChzrFs, plan.taps),
      .center_hz = centers,
  }};
}

TEST(Channelizer, PlannerSizesTheBank) {
  const auto plan = dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip,
                                                    chzr_centers());
  ASSERT_TRUE(plan.viable) << plan.reason;
  // C = next power of two >= fs/chip (166.7), D keeps >= 16 samples/chip.
  EXPECT_EQ(plan.fft_size, 256u);
  EXPECT_EQ(plan.decimation, 8u);
  EXPECT_GE(kChzrFs / static_cast<double>(plan.decimation),
            16.0 * kChzrChip);
  EXPECT_DOUBLE_EQ(plan.grid_origin_hz, 3000.0);
  EXPECT_DOUBLE_EQ(plan.grid_spacing_hz, 1500.0);
  // Off-grid and degenerate configurations are refused with a reason.
  EXPECT_FALSE(dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip,
                                               {3000.0, 4500.0, 6100.0})
                   .viable);
  EXPECT_FALSE(
      dsp::PolyphaseChannelizer::plan(8.0 * kChzrChip, kChzrChip, {3000.0})
          .viable);
  EXPECT_FALSE(dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip, {}).viable);
}

TEST(Channelizer, ToneLandsOnlyInItsLane) {
  // Known-answer test: a pure complex tone at one lane's center must come
  // out of that lane at (nearly) full amplitude rotated to DC, and leak
  // into the adjacent lanes by no more than the prototype's stopband
  // (Hamming windowed-sinc: < -50 dB; assert -40 dB for margin).
  const auto centers = chzr_centers();
  for (std::size_t tone = 0; tone < centers.size(); ++tone) {
    auto chzr = make_channelizer();
    const double w = 2.0 * kPi * centers[tone] / kChzrFs;
    const double amp = 0.7;
    std::vector<cplx> in(16384);
    for (std::size_t t = 0; t < in.size(); ++t) {
      const double ph = w * static_cast<double>(t);
      in[t] = amp * cplx{std::cos(ph), std::sin(ph)};
    }
    const std::size_t frames = chzr.process(in.data(), in.size());
    ASSERT_EQ(frames, in.size() / chzr.decimation());
    // Skip the prototype warmup (taps/decimation frames).
    const std::size_t warm = chzr.taps() / chzr.decimation() + 4;
    ASSERT_GT(frames, warm + 100);
    for (std::size_t k = 0; k < centers.size(); ++k) {
      double peak = 0.0;
      for (std::size_t f = warm; f < frames; ++f) {
        peak = std::max(peak, std::abs(chzr.lane(k)[f]));
      }
      if (k == tone) {
        EXPECT_NEAR(peak, amp, 0.05 * amp) << "lane " << k;
        // The residual-shift correction must park the tone at exact DC:
        // successive lane samples agree in phase.
        for (std::size_t f = warm; f + 1 < frames; ++f) {
          const cplx ratio = chzr.lane(k)[f + 1] / chzr.lane(k)[f];
          ASSERT_NEAR(std::arg(ratio), 0.0, 1e-6) << "frame " << f;
        }
      } else {
        EXPECT_LT(peak, amp * 0.01)
            << "tone " << tone << " leaked into lane " << k;
      }
    }
  }
}

TEST(Channelizer, CommutatorCarriesAcrossSplitCalls) {
  // One big process() call vs the same stream in awkward little pieces:
  // history and frame phase carry across calls, so the lanes are
  // bit-identical (same windows, same arithmetic, same frame grid).
  auto whole = make_channelizer();
  auto split = make_channelizer();
  sim::Rng rng{23};
  std::vector<cplx> in(12000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t total = whole.process(in.data(), in.size());

  std::vector<std::vector<cplx>> lanes(split.lane_count());
  const std::size_t chunks[] = {1, 3, 7, 8, 64, 129, 1000, 2048};
  std::size_t off = 0, ci = 0;
  while (off < in.size()) {
    const std::size_t n =
        std::min(chunks[ci++ % std::size(chunks)], in.size() - off);
    const std::size_t got = split.process(in.data() + off, n);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      lanes[k].insert(lanes[k].end(), split.lane(k),
                      split.lane(k) + got);
    }
    off += n;
  }
  ASSERT_EQ(whole.phase(), split.phase());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    ASSERT_EQ(lanes[k].size(), total);
    for (std::size_t f = 0; f < total; ++f) {
      ASSERT_EQ(lanes[k][f], whole.lane(k)[f])
          << "lane " << k << " frame " << f;
    }
  }
}

// FDMA capture shared by the bank-policy tests: one tag per subcarrier.
std::vector<double> fdma_capture(const std::vector<double>& subcarriers,
                                 double seconds = 0.3) {
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  for (std::size_t k = 0; k < subcarriers.size(); ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, subcarriers[k]}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * static_cast<double>(k);
    s.phase_rad = 0.5 + 0.4 * static_cast<double>(k);
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, seconds, rng);
}

TEST(Channelizer, FdmaBankPacketsIdenticalAcrossSplitCalls) {
  // Packet-level commutator continuity: the channelizer bank fed one big
  // block decodes the same packets at the same instants as the same bank
  // fed many small blocks. Scalar runs the float64 fold (TileSplit covers
  // the float32 one).
  auto params = fdma_params(dsp::KernelPolicy::kScalar, 1,
                            reader::FdmaRxChain::BankPolicy::kChannelizer);
  reader::FdmaRxChain whole{params};
  reader::FdmaRxChain split{params};
  ASSERT_EQ(whole.active_bank(),
            reader::FdmaRxChain::BankPolicy::kChannelizer);
  const auto wave = fdma_capture(chzr_centers());
  whole.process(wave.data(), wave.size());
  const std::size_t chunks[] = {501, 3, 12800, 7, 999, 20000};
  std::size_t off = 0, ci = 0;
  while (off < wave.size()) {
    const std::size_t n =
        std::min(chunks[ci++ % std::size(chunks)], wave.size() - off);
    split.process(wave.data() + off, n);
    off += n;
  }
  const auto a = whole.drain_packets();
  const auto b = split.drain_packets();
  ASSERT_GE(a.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].packet, b[i].packet);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
  }
}

TEST(KernelParity, BankPolicyMatrixDecodesIdenticalPacketStreams) {
  // The full matrix the parity contract covers: {scalar, simd} kernels x
  // {per-channel, channelizer} banks (threading varied for good measure).
  // Payloads, channels and CRC verdicts must agree exactly across all
  // six; timestamps within one channelizer lane sample — that
  // bounds both the banks' differing prototype filters and the simd
  // tier's float32 slicer jitter (a crossing can move ±1 decimated
  // sample, an order of magnitude under the lane sample).
  using Bank = reader::FdmaRxChain::BankPolicy;
  struct Cell {
    dsp::KernelPolicy kernels;
    std::size_t workers;
    Bank bank;
  };
  const Cell cells[] = {
      {dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel},
      {dsp::KernelPolicy::kSimd, 4, Bank::kPerChannel},
      {dsp::KernelPolicy::kSimd, 1, Bank::kPerChannel},
      {dsp::KernelPolicy::kScalar, 1, Bank::kChannelizer},
      {dsp::KernelPolicy::kScalar, 4, Bank::kChannelizer},
      {dsp::KernelPolicy::kSimd, 4, Bank::kChannelizer},
  };
  const auto wave = fdma_capture(chzr_centers());
  std::vector<std::vector<reader::RxPacket>> decoded;
  double lane_dt = 0.0;
  for (const auto& cell : cells) {
    reader::FdmaRxChain bank{
        fdma_params(cell.kernels, cell.workers, cell.bank)};
    ASSERT_EQ(bank.active_bank(), cell.bank);
    constexpr std::size_t kChunk = 20000;
    for (std::size_t off = 0; off < wave.size(); off += kChunk) {
      bank.process(wave.data(), 0);  // empty call: must be a no-op
      bank.process(wave.data() + off,
                   std::min(kChunk, wave.size() - off));
    }
    decoded.push_back(bank.drain_packets());
    if (cell.bank == Bank::kChannelizer) {
      // One lane sample in seconds, from the engaged channelizer's plan.
      const auto plan = dsp::PolyphaseChannelizer::plan(
          kChzrFs, kChzrChip, chzr_centers());
      lane_dt = static_cast<double>(plan.decimation) / kChzrFs;
    }
  }
  // Compare per-channel packet streams: a timestamp shift inside the
  // tolerance can legally reorder the cross-channel merge, so the merged
  // order is not part of the parity contract — the per-channel sequences
  // and their instants are.
  const auto by_channel = [](const std::vector<reader::RxPacket>& merged) {
    std::vector<std::vector<reader::RxPacket>> chans(4);
    for (const auto& p : merged) {
      EXPECT_LT(p.channel, chans.size());
      if (p.channel < chans.size()) chans[p.channel].push_back(p);
    }
    return chans;
  };
  std::vector<std::vector<std::vector<reader::RxPacket>>> streams;
  for (const auto& merged : decoded) streams.push_back(by_channel(merged));
  const auto& ref = streams.front();
  ASSERT_GE(decoded.front().size(), 4u);  // every channel decodes its tag
  for (std::size_t r = 1; r < streams.size(); ++r) {
    for (std::size_t c = 0; c < ref.size(); ++c) {
      ASSERT_EQ(streams[r][c].size(), ref[c].size())
          << "cell " << r << " channel " << c;
      for (std::size_t i = 0; i < ref[c].size(); ++i) {
        EXPECT_EQ(streams[r][c][i].packet, ref[c][i].packet)
            << "cell " << r << " channel " << c;
        EXPECT_NEAR(streams[r][c][i].time_s, ref[c][i].time_s, lane_dt)
            << "cell " << r << " channel " << c << " packet " << i;
      }
    }
  }
}

TEST(Channelizer, OnGridAddKeepsChannelizerOffGridAddFallsBack) {
  // The add_channel() grid contract: an on-grid subcarrier becomes a new
  // lane (channelizer stays engaged), an off-grid one triggers the logged
  // per-channel fallback — and neither loses anything already decoded.
  using Bank = reader::FdmaRxChain::BankPolicy;
  auto params = fdma_params(dsp::KernelPolicy::kSimd, 2,
                            Bank::kChannelizer);
  params.max_subcarrier_hz = 12000.0;  // headroom for the adds below
  reader::FdmaRxChain bank{params};
  ASSERT_EQ(bank.active_bank(), Bank::kChannelizer);

  const auto wave = fdma_capture(chzr_centers());
  bank.process(wave.data(), wave.size());
  const auto before = bank.drain_packets();
  ASSERT_GE(before.size(), 4u);
  const auto stats_before = bank.all_channel_stats();

  // On grid: 3000 + 4*1500 = 9000. Still the channelizer.
  bank.add_channel({9000.0});
  EXPECT_EQ(bank.active_bank(), Bank::kChannelizer);
  ASSERT_EQ(bank.channel_count(), 5u);
  const auto wave5 = fdma_capture({3000.0, 4500.0, 6000.0, 7500.0, 9000.0});
  bank.process(wave5.data(), wave5.size());
  const auto with_lane = bank.drain_packets();
  ASSERT_GE(with_lane.size(), 5u);
  EXPECT_TRUE(std::any_of(with_lane.begin(), with_lane.end(),
                          [](const auto& p) { return p.channel == 4; }));

  // Off grid: 10312.5 sits between grid steps (4.875 steps from the
  // origin) -> fallback, state preserved. Still a legal subcarrier: a
  // multiple of half the chip rate, one passband away from 9000.
  bank.add_channel({10312.5});
  EXPECT_EQ(bank.active_bank(), Bank::kPerChannel);
  ASSERT_EQ(bank.channel_count(), 6u);
  for (std::size_t c = 0; c < stats_before.size(); ++c) {
    const auto s = bank.channel_stats(c);
    EXPECT_GE(s.frames_ok, stats_before[c].frames_ok) << "channel " << c;
    EXPECT_GE(s.bits, stats_before[c].bits) << "channel " << c;
  }
  // Nothing drained twice, nothing lost: the per-channel bank keeps
  // decoding every channel (including the off-grid newcomer).
  const auto wave6 = fdma_capture(
      {3000.0, 4500.0, 6000.0, 7500.0, 9000.0, 10312.5});
  bank.process(wave6.data(), wave6.size());
  const auto after = bank.drain_packets();
  ASSERT_GE(after.size(), 6u);
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_TRUE(std::any_of(after.begin(), after.end(),
                            [&](const auto& p) { return p.channel == c; }))
        << "channel " << c << " stopped decoding after the fallback";
  }
}

}  // namespace
