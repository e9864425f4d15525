// Steady-state allocation audit (telemetry/counting_alloc):
// CountingAllocatorGuard semantics first, then the contracts the guard
// exists to enforce — after warm-up, the FdmaRxChain decode loop and the
// ReaderService session loop perform zero heap allocations per block,
// and the scratch the DDC, the block FIR stages and RxChain grow to does
// not depend on the caller's block size. Linking this binary pulls the
// counting global new/delete in from the static library (see
// counting_alloc.hpp), so every heap operation in the process is visible
// to the guard.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"

namespace {

using arachnet::telemetry::CountingAllocatorGuard;

// ------------------------------------------------------ guard semantics

TEST(CountingAlloc, CountsScalarNewAndDelete) {
  CountingAllocatorGuard guard;
  auto* p = new int{42};
  EXPECT_GE(guard.allocations(), 1u);
  const std::uint64_t before_delete = guard.deallocations();
  delete p;
  EXPECT_GE(guard.deallocations(), before_delete + 1);
}

TEST(CountingAlloc, CountsArrayAndVectorGrowth) {
  CountingAllocatorGuard guard;
  // The sink keeps the new[]/delete[] pair observable — compilers may
  // elide a provably-unused allocation pair entirely.
  static double* volatile sink;
  sink = new double[17];
  delete[] sink;
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.deallocations(), 1u);
  const std::uint64_t base = guard.allocations();
  std::vector<int> v;
  v.reserve(100);
  EXPECT_GE(guard.allocations(), base + 1);
  // Growth within reserved capacity must NOT count.
  const std::uint64_t reserved = guard.allocations();
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(guard.allocations(), reserved);
}

TEST(CountingAlloc, CountsAlignedAndNothrowVariants) {
  CountingAllocatorGuard guard;
  struct alignas(64) Wide {
    double lanes[8];
  };
  auto* w = new Wide{};
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % 64, 0u);
  delete w;
  auto* q = new (std::nothrow) int{7};
  ASSERT_NE(q, nullptr);
  delete q;
  EXPECT_GE(guard.allocations(), 2u);
  EXPECT_GE(guard.deallocations(), 2u);
}

TEST(CountingAlloc, DeleteNullptrDoesNotCount) {
  CountingAllocatorGuard guard;
  int* p = nullptr;
  delete p;  // must be a no-op, not a counted free
  EXPECT_EQ(guard.deallocations(), 0u);
}

TEST(CountingAlloc, CountsRequestedBytes) {
  CountingAllocatorGuard guard;
  static double* volatile sink;
  sink = new double[17];
  delete[] sink;
  EXPECT_GE(guard.bytes(), 17 * sizeof(double));
  // Frees do not subtract; growth within capacity requests nothing.
  std::vector<char> v;
  v.reserve(1000);
  const std::uint64_t reserved = guard.bytes();
  EXPECT_GE(reserved, 17 * sizeof(double) + 1000);
  v.resize(1000);
  EXPECT_EQ(guard.bytes(), reserved);
}

TEST(CountingAlloc, GuardConstructionIsAllocationFree) {
  CountingAllocatorGuard outer;
  {
    CountingAllocatorGuard inner;
    (void)inner;
  }
  EXPECT_EQ(outer.allocations(), 0u);
}

// ------------------------------------------------- FDMA steady state

// One tag per subcarrier (the test_kernels bank-capture recipe).
std::vector<double> fdma_capture(double seconds) {
  arachnet::acoustic::UplinkWaveformSynth synth{
      arachnet::acoustic::UplinkWaveformSynth::Params{}};
  arachnet::sim::Rng rng{101};
  std::vector<arachnet::acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 4; ++k) {
    const arachnet::phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(0x500 + k)};
    arachnet::phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    arachnet::acoustic::BackscatterSource s;
    s.chips = mod.modulate(
        arachnet::phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, seconds, rng);
}

arachnet::reader::FdmaRxChain::Params bank_params(
    arachnet::reader::FdmaRxChain::BankPolicy bank) {
  arachnet::reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = 1;  // sequential: the audit owns every allocation it sees
  fp.kernels = arachnet::dsp::KernelPolicy::kSimd;
  fp.bank = bank;
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

void expect_steady_state_clean(
    arachnet::reader::FdmaRxChain::BankPolicy bank) {
  arachnet::reader::FdmaRxChain chain{bank_params(bank)};
  ASSERT_EQ(chain.active_bank(), bank);
  const auto wave = fdma_capture(0.3);
  constexpr std::size_t kBlock = 10000;  // 20 ms at 500 kS/s
  std::vector<arachnet::reader::RxPacket> drained;
  std::size_t packets = 0;
  // Warm-up pass: scratch buffers, packet lists and the drain vector all
  // grow to their high-water marks here.
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    chain.process(wave.data() + off, std::min(kBlock, wave.size() - off));
    packets += chain.drain_packets(drained);
  }
  ASSERT_GE(packets, 4u) << "warm-up must decode real packets";
  // Measured pass: the identical block schedule (and, since the chain
  // carries its DSP state, live decodes) must not touch the heap.
  CountingAllocatorGuard guard;
  packets = 0;
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    chain.process(wave.data() + off, std::min(kBlock, wave.size() - off));
    packets += chain.drain_packets(drained);
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "per-block decode loop allocated in steady state";
  EXPECT_EQ(guard.deallocations(), 0u);
  EXPECT_GE(packets, 4u) << "measured pass must decode real packets";
}

// ------------------------------------- scratch independent of block size

using arachnet::dsp::KernelPolicy;
using cplx = std::complex<double>;

constexpr std::size_t kSmallBlock = 10'000;
constexpr std::size_t kLargeBlock = 100'000;
constexpr KernelPolicy kPolicies[] = {KernelPolicy::kScalar,
                                      KernelPolicy::kSimd};

// The bare 90 kHz carrier: DDC input that decodes to nothing, so no
// packet list or framer body grows alongside the scratch under test.
std::vector<double> carrier(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * 90e3 / 500e3 *
                    static_cast<double>(i));
  }
  return x;
}

// Heap bytes a fresh Ddc requests to construct and process one n-sample
// block. The input and the caller's output (reserved) exist beforehand.
std::uint64_t ddc_warm_bytes(KernelPolicy policy, std::size_t n) {
  arachnet::dsp::Ddc::Params p;
  p.kernels = policy;
  const auto in = carrier(n);
  std::vector<cplx> out;
  out.reserve(n / p.decimation + 1);
  CountingAllocatorGuard guard;
  arachnet::dsp::Ddc ddc{p};
  ddc.process(std::span<const double>{in}, out);
  EXPECT_EQ(out.size(), n / p.decimation);
  return guard.bytes();
}

// Same for a streaming RxChain (no retained IQ points).
std::uint64_t rx_chain_warm_bytes(KernelPolicy policy, std::size_t n) {
  arachnet::reader::RxChain::Params p;
  p.ddc.kernels = policy;
  p.retain_iq_points = false;
  const auto in = carrier(n);
  CountingAllocatorGuard guard;
  arachnet::reader::RxChain chain{p};
  chain.process(in.data(), in.size());
  EXPECT_EQ(chain.samples_consumed(), n);
  return guard.bytes();
}

TEST(ScratchBytes, DdcWarmUpDoesNotGrowWithBlockSize) {
  for (const KernelPolicy policy : kPolicies) {
    const std::uint64_t small = ddc_warm_bytes(policy, kSmallBlock);
    EXPECT_EQ(small, ddc_warm_bytes(policy, kLargeBlock))
        << arachnet::dsp::to_string(policy);
    // Less than one small block of mixed complex samples: the scratch
    // is a tile, not a block.
    EXPECT_LT(small, kSmallBlock * sizeof(cplx))
        << arachnet::dsp::to_string(policy);
  }
}

TEST(ScratchBytes, RxChainWarmUpDoesNotGrowWithBlockSize) {
  // The first chain in the process also sets up one-time process-wide
  // state; keep that out of the comparison.
  rx_chain_warm_bytes(KernelPolicy::kScalar, 1);
  for (const KernelPolicy policy : kPolicies) {
    const std::uint64_t small = rx_chain_warm_bytes(policy, kSmallBlock);
    EXPECT_EQ(small, rx_chain_warm_bytes(policy, kLargeBlock))
        << arachnet::dsp::to_string(policy);
    EXPECT_LT(small, kSmallBlock * sizeof(cplx))
        << arachnet::dsp::to_string(policy);
  }
}

TEST(ScratchBytes, SimdFirStagesWarmUpDoesNotGrowWithBlockSize) {
  const auto coeffs = arachnet::dsp::design_lowpass(6e3, 500e3, 129);
  // Heap bytes `run` requests for a fresh stage and one n-sample block;
  // input (interleaved float32) and output buffers exist beforehand.
  const auto warm_bytes = [](std::size_t n, const auto& run) {
    const std::vector<float> in_f(2 * n, 0.5f);
    std::vector<cplx> out(n);
    std::vector<float> out_f(2 * n);
    CountingAllocatorGuard guard;
    run(in_f, out, out_f);
    return guard.bytes();
  };
  const auto simd_filter = [&](const auto& in_f, auto&, auto& out_f) {
    arachnet::dsp::simd::FirSimdFilter f{coeffs};
    f.process(in_f.data(), out_f.data(), in_f.size() / 2);
  };
  const auto simd_decimator = [&](const auto& in_f, auto& out, auto&) {
    arachnet::dsp::simd::FirSimdDecimator d{coeffs, 16};
    d.process(in_f.data(), in_f.size() / 2, out.data());
  };
  EXPECT_EQ(warm_bytes(kSmallBlock, simd_filter),
            warm_bytes(kLargeBlock, simd_filter))
      << "FirSimdFilter";
  EXPECT_EQ(warm_bytes(kSmallBlock, simd_decimator),
            warm_bytes(kLargeBlock, simd_decimator))
      << "FirSimdDecimator";
}

TEST(SteadyStateAlloc, FdmaChannelizerBankDecodeLoopIsAllocationFree) {
  expect_steady_state_clean(
      arachnet::reader::FdmaRxChain::BankPolicy::kChannelizer);
}

TEST(SteadyStateAlloc, FdmaPerChannelBankDecodeLoopIsAllocationFree) {
  expect_steady_state_clean(
      arachnet::reader::FdmaRxChain::BankPolicy::kPerChannel);
}

// ---------------------------------------------- service steady state

// Baseband single-packet capture (what a service session's single-channel
// RxChain decodes).
std::vector<double> baseband_capture() {
  arachnet::acoustic::UplinkWaveformSynth synth{
      arachnet::acoustic::UplinkWaveformSynth::Params{}};
  arachnet::sim::Rng rng{7};
  const arachnet::phy::UlPacket pkt{.tid = 3, .payload = 0x2AB};
  arachnet::acoustic::BackscatterSource s;
  s.chips = arachnet::phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

TEST(SteadyStateAlloc, ServiceSessionLoopIsAllocationFree) {
  using arachnet::reader::service::ReaderService;
  ReaderService service{{.workers = 1}};
  service.start();
  const auto id = service.open_session({.priority = 1});
  ASSERT_TRUE(id.has_value());

  const auto wave = baseband_capture();
  constexpr std::size_t kBlock = 10000;

  // Submits the capture block-by-block through the recycled-buffer path,
  // waiting out each block so the dispatch queue stays at depth <= 1 (the
  // free-list high-water mark the warm-up establishes) and draining the
  // output as it goes. Returns the number of packets consumed.
  const auto stream_capture = [&]() {
    std::size_t consumed = 0;
    std::uint64_t processed =
        service.session_stats(*id)->blocks_processed;
    for (std::size_t off = 0; off < wave.size(); off += kBlock) {
      auto block = service.acquire_block(*id);
      const std::size_t n = std::min(kBlock, wave.size() - off);
      block.resize(n);
      std::copy(wave.data() + off, wave.data() + off + n, block.data());
      ASSERT_TRUE(service.submit(*id, std::move(block)));
      ++processed;
      while (service.session_stats(*id)->blocks_processed < processed) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      while (service.poll_packet(*id).has_value()) ++consumed;
    }
    EXPECT_GE(consumed, 1u) << "session must decode real packets";
  };

  stream_capture();  // warm-up: block pool, chain scratch, queue nodes
  CountingAllocatorGuard guard;
  stream_capture();
  EXPECT_EQ(guard.allocations(), 0u)
      << "service session loop allocated in steady state";

  service.close_session(*id);
  service.stop();
}

}  // namespace
