// Tests for the SIMD kernel tier (dsp/kernels/simd/ + cpu_dispatch):
// runtime ISA dispatch and its clamping rules, the kernel-policy env
// parsing (including the structured WARN on unrecognized values), the
// float32 SimdNco against a long-double phase reference over 10^8
// samples and at near-Nyquist steps, the float32 FIR stages against the
// double scalar FirFilter (including denormal and NaN blocks), Ddc /
// derotate / channelizer parity, and — the load-bearing guarantee — that
// the kSimd policy decodes the identical packet set as the scalar
// reference, on the hardware tier and on the forced portable tier, over
// a seeded sweep of random scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <map>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/log.hpp"

namespace {

using namespace arachnet;
using cplx = std::complex<double>;

constexpr double kPi = std::numbers::pi;

// ----------------------------------------------------------- cpu_dispatch

TEST(CpuDispatch, ActiveTierIsSupportedAndTableMatches) {
  const dsp::CpuFeatures& f = dsp::detect_cpu_features();
  const dsp::SimdIsa isa = dsp::active_simd_isa();
  if (isa == dsp::SimdIsa::kAvx2) {
    EXPECT_TRUE(f.avx2 && f.fma);
  }
  if (isa == dsp::SimdIsa::kNeon) {
    EXPECT_TRUE(f.neon);
  }
  EXPECT_STREQ(dsp::simd::kernels().isa, dsp::to_string(isa));
  EXPECT_FALSE(dsp::cpu_feature_string().empty());
}

TEST(CpuDispatch, ForceClampsToHardwareAndBuild) {
  const dsp::SimdIsa before = dsp::active_simd_isa();
  const dsp::CpuFeatures& f = dsp::detect_cpu_features();

  dsp::force_simd_isa(dsp::SimdIsa::kGeneric);
  // On aarch64 the portable tier *is* the NEON tier; everywhere else the
  // request must be honored exactly.
  const dsp::SimdIsa portable = dsp::active_simd_isa();
  EXPECT_EQ(portable, f.neon ? dsp::SimdIsa::kNeon : dsp::SimdIsa::kGeneric);
  EXPECT_STREQ(dsp::simd::kernels().isa, dsp::to_string(portable));

  dsp::force_simd_isa(dsp::SimdIsa::kAvx2);
#if defined(ARACHNET_DISABLE_SIMD)
  // The build compiled the AVX2 tier out: the request must degrade.
  EXPECT_NE(dsp::active_simd_isa(), dsp::SimdIsa::kAvx2);
#else
  if (f.avx2 && f.fma) {
    EXPECT_EQ(dsp::active_simd_isa(), dsp::SimdIsa::kAvx2);
  } else {
    EXPECT_NE(dsp::active_simd_isa(), dsp::SimdIsa::kAvx2);
  }
#endif
  EXPECT_STREQ(dsp::simd::kernels().isa,
               dsp::to_string(dsp::active_simd_isa()));

  dsp::force_simd_isa(before);
  EXPECT_EQ(dsp::active_simd_isa(), before);
}

// --------------------------------------------------- kernel policy env

struct CapturedLog {
  int count = 0;
  telemetry::LogLevel level = telemetry::LogLevel::kTrace;
  std::string component;
  std::string message;
  std::map<std::string, std::string> string_fields;
};

void capture_sink(const telemetry::LogRecord& rec, void* user) {
  auto* cap = static_cast<CapturedLog*>(user);
  ++cap->count;
  cap->level = rec.level;
  cap->component = std::string{rec.component};
  cap->message = std::string{rec.message};
  for (std::size_t i = 0; i < rec.field_count; ++i) {
    const telemetry::LogField& field = rec.fields[i];
    if (field.kind == telemetry::LogField::Kind::kString) {
      cap->string_fields[std::string{field.key}] = std::string{field.s};
    }
  }
}

TEST(KernelPolicyEnv, ParseAcceptsBothPolicies) {
  EXPECT_EQ(dsp::parse_kernel_policy("scalar"), dsp::KernelPolicy::kScalar);
  EXPECT_EQ(dsp::parse_kernel_policy("simd"), dsp::KernelPolicy::kSimd);
  EXPECT_FALSE(dsp::parse_kernel_policy("block").has_value());
  EXPECT_FALSE(dsp::parse_kernel_policy("turbo").has_value());
  EXPECT_FALSE(dsp::parse_kernel_policy("").has_value());
  EXPECT_STREQ(dsp::to_string(dsp::KernelPolicy::kScalar), "scalar");
  EXPECT_STREQ(dsp::to_string(dsp::KernelPolicy::kSimd), "simd");
}

TEST(KernelPolicyEnv, UnrecognizedValueWarnsNamingValueAndFallback) {
  // Unset and recognized values resolve silently.
  {
    CapturedLog cap;
    telemetry::set_log_sink(capture_sink, &cap);
    EXPECT_EQ(dsp::kernel_policy_from_env_value(nullptr),
              dsp::KernelPolicy::kSimd);
    EXPECT_EQ(dsp::kernel_policy_from_env_value(""),
              dsp::KernelPolicy::kSimd);
    EXPECT_EQ(dsp::kernel_policy_from_env_value("simd"),
              dsp::KernelPolicy::kSimd);
    EXPECT_EQ(dsp::kernel_policy_from_env_value("scalar"),
              dsp::KernelPolicy::kScalar);
    telemetry::set_log_sink(telemetry::stderr_log_sink);
    EXPECT_EQ(cap.count, 0);
  }
  // An unrecognized value — including the retired "block" policy — falls
  // back to kSimd with a WARN that names what was rejected, what it fell
  // back to, and what is accepted.
  for (const char* bad : {"turbo", "block"}) {
    SCOPED_TRACE(bad);
    CapturedLog cap;
    telemetry::set_log_sink(capture_sink, &cap);
    EXPECT_EQ(dsp::kernel_policy_from_env_value(bad),
              dsp::KernelPolicy::kSimd);
    telemetry::set_log_sink(telemetry::stderr_log_sink);
    ASSERT_EQ(cap.count, 1);
    EXPECT_EQ(cap.level, telemetry::LogLevel::kWarn);
    EXPECT_EQ(cap.component, "kernels");
    EXPECT_EQ(cap.string_fields["value"], bad);
    EXPECT_EQ(cap.string_fields["fallback"], "simd");
    EXPECT_EQ(cap.string_fields["accepted"], "scalar|simd");
  }
}

/// Restores the process's active ISA tier when a test that forces one
/// ends, skips or fails.
struct ActiveIsaGuard {
  dsp::SimdIsa saved = dsp::active_simd_isa();
  ~ActiveIsaGuard() { dsp::force_simd_isa(saved); }
};

TEST(KernelPolicyEnv, UnsetResolvesToSimdOnEveryTier) {
  ActiveIsaGuard guard;
  for (const dsp::SimdIsa isa : {dsp::SimdIsa::kGeneric, dsp::SimdIsa::kAvx2}) {
    dsp::force_simd_isa(isa);
    SCOPED_TRACE(dsp::to_string(dsp::active_simd_isa()));
    EXPECT_EQ(dsp::kernel_policy_from_env_value(nullptr),
              dsp::KernelPolicy::kSimd);
    EXPECT_EQ(dsp::kernel_policy_from_env_value("scalar"),
              dsp::KernelPolicy::kScalar);
  }
}

// --------------------------------------------------------------- SimdNco

// Long-double phase reference: exact enough (ulp ~1e-11 at 10^8 steps)
// to measure the simd oscillator's drift rather than its own.
cplx reference_phasor(double phase0, double step, std::size_t index) {
  const long double p =
      static_cast<long double>(phase0) +
      static_cast<long double>(index) * static_cast<long double>(step);
  const long double wrapped =
      std::remainder(p, 2.0L * std::numbers::pi_v<long double>);
  return {static_cast<double>(std::cos(wrapped)),
          static_cast<double>(std::sin(wrapped))};
}

TEST(SimdNco, PhaseStaysLockedOverHundredMillionSamples) {
  // The drift requirement behind the per-chunk reseed: after >= 10^8
  // samples the oscillator must still be phase-locked — float32 lane
  // error must not accumulate across chunks. Unit input makes the output
  // the bare phasor.
  const double phase0 = 0.25;
  const double step = -2.0 * kPi * 90e3 / 500e3;  // the DDC carrier step
  dsp::simd::SimdNco nco{phase0, step};
  constexpr std::size_t kBlockLen = 1u << 16;
  constexpr std::size_t kTarget = 100'000'000;
  std::vector<double> in(kBlockLen, 1.0);
  std::vector<float> out(2 * kBlockLen);
  std::size_t done = 0;
  while (done < kTarget) {
    nco.mix_real(in.data(), out.data(), kBlockLen);
    done += kBlockLen;
  }
  ASSERT_GE(done, kTarget);
  // Every 997th sample of the final block (plus the very last) against
  // the reference: in-chunk float32 drift ~1e-4 rad plus ~1e-5 rad of
  // accumulated double master-phase rounding stays far under 2e-3.
  const std::size_t base = done - kBlockLen;
  for (std::size_t k = 0; k < kBlockLen; k += 997) {
    const cplx want = reference_phasor(phase0, step, base + k);
    EXPECT_NEAR(out[2 * k], want.real(), 2e-3) << "sample " << base + k;
    EXPECT_NEAR(out[2 * k + 1], want.imag(), 2e-3) << "sample " << base + k;
  }
  const cplx last = reference_phasor(phase0, step, done - 1);
  EXPECT_NEAR(out[2 * (kBlockLen - 1)], last.real(), 2e-3);
  EXPECT_NEAR(out[2 * (kBlockLen - 1) + 1], last.imag(), 2e-3);
  // The lanes stay on the unit circle (no amplitude decay either way).
  for (std::size_t k = 0; k < kBlockLen; k += 131) {
    const double mag = std::hypot(static_cast<double>(out[2 * k]),
                                  static_cast<double>(out[2 * k + 1]));
    ASSERT_NEAR(mag, 1.0, 1e-3) << "sample " << base + k;
  }
}

TEST(SimdNco, NearNyquistStepStaysAccurate) {
  // A subcarrier just under Nyquist: the per-sample step is almost pi,
  // the worst case for the lane rotator (the 8-step advance wraps nearly
  // four full turns between reseeds).
  const double phase0 = -1.1;
  const double step = 2.0 * kPi * 0.49;
  dsp::simd::SimdNco nco{phase0, step};
  constexpr std::size_t kBlockLen = 1u << 15;
  std::vector<double> in(kBlockLen, 1.0);
  std::vector<float> out(2 * kBlockLen);
  std::size_t base = 0;
  for (int block = 0; block < 64; ++block) {  // ~2.1M samples
    nco.mix_real(in.data(), out.data(), kBlockLen);
    for (std::size_t k = 0; k < kBlockLen; k += 509) {
      const cplx want = reference_phasor(phase0, step, base + k);
      ASSERT_NEAR(out[2 * k], want.real(), 2e-3) << "sample " << base + k;
      ASSERT_NEAR(out[2 * k + 1], want.imag(), 2e-3)
          << "sample " << base + k;
    }
    base += kBlockLen;
  }
}

TEST(SimdNco, ComplexMixMatchesScalarRotation) {
  sim::Rng rng{31};
  const double phase0 = 0.5;
  const double step = -0.71;
  std::vector<cplx> in(5000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  std::vector<float> out(2 * in.size());
  dsp::simd::SimdNco nco{phase0, step};
  nco.mix(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ph = phase0 + static_cast<double>(i) * step;
    const cplx want = in[i] * cplx{std::cos(ph), std::sin(ph)};
    EXPECT_NEAR(out[2 * i], want.real(), 1e-4) << "sample " << i;
    EXPECT_NEAR(out[2 * i + 1], want.imag(), 1e-4) << "sample " << i;
  }
}

// ------------------------------------------------------------ FIR stages

std::vector<float> to_interleaved(const std::vector<cplx>& in) {
  std::vector<float> out(2 * in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[2 * i] = static_cast<float>(in[i].real());
    out[2 * i + 1] = static_cast<float>(in[i].imag());
  }
  return out;
}

TEST(FirSimd, FilterMatchesScalarFilterWithinFloatTolerance) {
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 127);
  dsp::FirFilter<cplx> ref{coeffs};
  dsp::simd::FirSimdFilter simd{coeffs};
  sim::Rng rng{32};
  std::vector<cplx> in, want;
  // Chunk sizes smaller and larger than the tap count: history carry
  // must line up with the double streaming filter at every split.
  for (std::size_t n : {1u, 3u, 126u, 127u, 128u, 1000u}) {
    in.resize(n);
    want.resize(n);
    for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    ref.process(in.data(), want.data(), n);
    const auto in_f = to_interleaved(in);
    std::vector<float> got(2 * n);
    simd.process(in_f.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[2 * i], want[i].real(), 1e-4) << "chunk " << n;
      EXPECT_NEAR(got[2 * i + 1], want[i].imag(), 1e-4) << "chunk " << n;
    }
  }
}

TEST(FirSimd, FilterInPlaceMatchesOutOfPlace) {
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  dsp::simd::FirSimdFilter a{coeffs};
  dsp::simd::FirSimdFilter b{coeffs};
  sim::Rng rng{33};
  std::vector<cplx> in(500);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  auto x = to_interleaved(in);
  std::vector<float> out(x.size());
  a.process(x.data(), out.data(), in.size());
  b.process(x.data(), x.data(), in.size());  // in-place
  EXPECT_EQ(x, out);
}

TEST(FirSimd, DecimatorMatchesScalarDecimationGrid) {
  const auto coeffs = dsp::design_lowpass(6e3, 500e3, 129);
  const std::size_t decim = 8;
  // The scalar Ddc's decimator: feed() every sample, value() at every
  // decim-th.
  dsp::FirFilter<cplx> ref{coeffs};
  std::size_t ref_phase = 0;
  dsp::simd::FirSimdDecimator simd{coeffs, decim};
  sim::Rng rng{34};
  std::vector<cplx> in;
  // Chunks smaller than, equal to, and coprime with the decimation: the
  // survivor grid and phase must match the scalar decimator exactly.
  for (std::size_t n : {1u, 5u, 7u, 8u, 9u, 777u, 4096u}) {
    in.resize(n);
    for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    std::vector<cplx> want;
    for (const cplx& x : in) {
      ref.feed(x);
      if (++ref_phase == decim) {
        ref_phase = 0;
        want.push_back(ref.value());
      }
    }
    const auto in_f = to_interleaved(in);
    std::vector<cplx> got(n / decim + 1);
    const std::size_t got_n = simd.process(in_f.data(), n, got.data());
    ASSERT_EQ(got_n, want.size()) << "chunk " << n;
    ASSERT_EQ(simd.phase(), ref_phase) << "chunk " << n;
    for (std::size_t i = 0; i < got_n; ++i) {
      EXPECT_NEAR(got[i].real(), want[i].real(), 1e-4) << "chunk " << n;
      EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-4) << "chunk " << n;
    }
  }
}

TEST(FirSimd, DenormalBlocksStayFiniteAndTiny) {
  // A block of float32 denormals must neither trap nor produce garbage:
  // outputs are finite and essentially zero (flush-to-zero is fine).
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  dsp::simd::FirSimdFilter lpf{coeffs};
  std::vector<float> in(2 * 256);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = (i % 2 ? 1.0f : -1.0f) * 1e-42f;  // subnormal float32
  }
  std::vector<float> out(in.size());
  lpf.process(in.data(), out.data(), 256);
  for (float v : out) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LE(std::abs(v), 1e-30f);
  }
  // Same through the oscillator on subnormal doubles.
  dsp::simd::SimdNco nco{0.3, 1.1};
  std::vector<double> tiny(256, 1e-310);
  std::vector<float> mixed(2 * tiny.size());
  nco.mix_real(tiny.data(), mixed.data(), tiny.size());
  for (float v : mixed) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LE(std::abs(v), 1e-30f);
  }
}

TEST(FirSimd, NanBlockFlushesInsteadOfPoisoningState) {
  // NaNs must stay confined to the outputs whose window overlaps them:
  // once taps-1 clean samples have passed, the filter matches a double
  // reference fed the same stream sample for sample.
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  const std::size_t taps = coeffs.size();
  dsp::FirFilter<cplx> ref{coeffs};
  dsp::simd::FirSimdFilter simd{coeffs};
  sim::Rng rng{35};
  const std::size_t nan_len = 32;
  const std::size_t clean_len = 512;
  std::vector<cplx> in(nan_len + clean_len);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < nan_len; ++i) in[i] = {nan, nan};
  for (std::size_t i = nan_len; i < in.size(); ++i) {
    in[i] = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  }
  std::vector<cplx> want(in.size());
  ref.process(in.data(), want.data(), in.size());
  const auto in_f = to_interleaved(in);
  std::vector<float> got(2 * in.size());
  simd.process(in_f.data(), got.data(), in.size());
  const std::size_t flushed = nan_len + taps - 1;
  for (std::size_t i = flushed; i < in.size(); ++i) {
    ASSERT_TRUE(std::isfinite(got[2 * i])) << "sample " << i;
    ASSERT_TRUE(std::isfinite(got[2 * i + 1])) << "sample " << i;
    EXPECT_NEAR(got[2 * i], want[i].real(), 1e-4) << "sample " << i;
    EXPECT_NEAR(got[2 * i + 1], want[i].imag(), 1e-4) << "sample " << i;
  }
}

// ----------------------------------------------------- Ddc / derotate

dsp::Ddc::Params ddc_params(dsp::KernelPolicy policy) {
  dsp::Ddc::Params p;
  p.kernels = policy;
  return p;
}

TEST(SimdParity, DdcSimdMatchesScalarIq) {
  dsp::Ddc scalar{ddc_params(dsp::KernelPolicy::kScalar)};
  dsp::Ddc simd{ddc_params(dsp::KernelPolicy::kSimd)};
  sim::Rng rng{36};
  std::vector<double> in;
  std::vector<cplx> iq_b, iq_s;
  // Chunks below, at, and coprime with the decimation of 16.
  for (std::size_t n : {3u, 16u, 17u, 999u, 20000u}) {
    in.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = std::cos(1.13 * static_cast<double>(i)) +
              rng.normal(0.0, 0.01);
    }
    iq_b.clear();
    iq_s.clear();
    const std::size_t got_b =
        scalar.process(std::span<const double>{in}, iq_b);
    const std::size_t got_s = simd.process(std::span<const double>{in}, iq_s);
    ASSERT_EQ(got_s, got_b) << "chunk " << n;
    ASSERT_EQ(simd.decimation_phase(), scalar.decimation_phase());
    for (std::size_t i = 0; i < got_b; ++i) {
      EXPECT_NEAR(iq_s[i].real(), iq_b[i].real(), 1e-5);
      EXPECT_NEAR(iq_s[i].imag(), iq_b[i].imag(), 1e-5);
    }
  }
}

TEST(SimdParity, DdcPushAndProcessShareState) {
  // push() streams one sample at a time through the same simd stages, so
  // mixing call styles tracks block-call-only processing to float32
  // tolerance (lane reseeds land differently per call split, so bit
  // equality is not promised — the kSimd IQ contract is).
  dsp::Ddc mixed_calls{ddc_params(dsp::KernelPolicy::kSimd)};
  dsp::Ddc block_calls{ddc_params(dsp::KernelPolicy::kSimd)};
  sim::Rng rng{37};
  std::vector<double> in(1000);
  for (auto& v : in) v = rng.normal(0.0, 1.0);

  std::vector<cplx> got;
  for (std::size_t i = 0; i < 100; ++i) {
    if (const auto iq = mixed_calls.push(in[i])) got.push_back(*iq);
  }
  mixed_calls.process(std::span<const double>{in}.subspan(100), got);

  std::vector<cplx> want;
  block_calls.process(std::span<const double>{in}, want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-5) << "iq sample " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-5) << "iq sample " << i;
  }
}

TEST(SimdParity, DerotateSimdMatchesScalar) {
  sim::Rng rng{38};
  std::vector<cplx> iq(5000);
  for (auto& v : iq) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const auto a = dsp::derotate(iq, 31250.0, 12.7, dsp::KernelPolicy::kScalar);
  const auto b = dsp::derotate(iq, 31250.0, 12.7, dsp::KernelPolicy::kSimd);
  // Tolerance: ~1e-4 rad of in-chunk float32 phasor drift scaled by the
  // unit-normal sample magnitudes (|x| reaches ~4 at n=5000).
  for (std::size_t i = 0; i < iq.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), 5e-5);
    EXPECT_NEAR(a[i].imag(), b[i].imag(), 5e-5);
  }
}

// ----------------------------------------------------------- Channelizer

namespace {

struct ChzrFixture {
  dsp::PolyphaseChannelizer::Plan plan;
  std::vector<double> proto;
  std::vector<double> centers;
  double fs = 62500.0;

  explicit ChzrFixture(std::vector<double> c = {3000.0, 4500.0, 6000.0,
                                                7500.0}) {
    centers = std::move(c);
    plan = dsp::PolyphaseChannelizer::plan(fs, 375.0, centers);
    proto = plan.viable
                ? dsp::design_lowpass(plan.cutoff_hz, fs, plan.taps)
                : std::vector<double>{};
  }

  dsp::PolyphaseChannelizer make(
      dsp::KernelPolicy policy,
      dsp::PolyphaseChannelizer::Params::Fold fold =
          dsp::PolyphaseChannelizer::Params::Fold::kAuto) const {
    return dsp::PolyphaseChannelizer{{
        .sample_rate_hz = fs,
        .fft_size = plan.fft_size,
        .decimation = plan.decimation,
        .prototype = proto,
        .center_hz = centers,
        .kernels = policy,
        .fold = fold,
    }};
  }
};

}  // namespace

TEST(SimdParity, ChannelizerSimdF64FoldMatchesScalarFold) {
  // With the fold pinned to float64, the simd path changes only loop
  // structure and summation order, so lanes agree to summation-reordering
  // tolerance — not just float32 tolerance.
  const ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto scalar = fx.make(dsp::KernelPolicy::kScalar);
  auto simd = fx.make(dsp::KernelPolicy::kSimd,
                      dsp::PolyphaseChannelizer::Params::Fold::kFloat64);
  EXPECT_FALSE(simd.float32_path());
  sim::Rng rng{39};
  std::vector<cplx> in(12000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t frames_a = scalar.process(in.data(), in.size());
  const std::size_t frames_b = simd.process(in.data(), in.size());
  ASSERT_EQ(frames_a, frames_b);
  ASSERT_GT(frames_a, 100u);
  for (std::size_t k = 0; k < fx.centers.size(); ++k) {
    for (std::size_t f = 0; f < frames_a; ++f) {
      ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(), 1e-9)
          << "lane " << k << " frame " << f;
      ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(), 1e-9)
          << "lane " << k << " frame " << f;
    }
  }
}

TEST(SimdParity, ChannelizerFloat32LaneTracksScalarToFloatTolerance) {
  // The default kSimd channelizer rides the float32 fast path: fold,
  // inverse FFT and lane rotation all single-precision. Lane IQ tracks
  // the scalar float64 reference to float32-scale error — orders of
  // magnitude inside the decision chain's margin.
  const ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto scalar = fx.make(dsp::KernelPolicy::kScalar);
  auto simd = fx.make(dsp::KernelPolicy::kSimd);
  EXPECT_TRUE(simd.float32_path());
  sim::Rng rng{39};
  std::vector<cplx> in(12000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t frames_a = scalar.process(in.data(), in.size());
  const std::size_t frames_b = simd.process(in.data(), in.size());
  ASSERT_EQ(frames_a, frames_b);
  ASSERT_GT(frames_a, 100u);
  for (std::size_t k = 0; k < fx.centers.size(); ++k) {
    double ref_pow = 0.0;
    for (std::size_t f = 0; f < frames_a; ++f) {
      ref_pow += std::norm(scalar.lane(k)[f]);
    }
    const double scale =
        std::max(1.0, std::sqrt(ref_pow / static_cast<double>(frames_a)));
    for (std::size_t f = 0; f < frames_a; ++f) {
      ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
      ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
    }
  }
}

TEST(SimdParity, ChannelizerFloat32SurvivesDenormalAndNanBlocks) {
  // Denormal-flooded input must not slow down or corrupt the float32
  // path (narrowing flushes the tiny values harmlessly), and NaN blocks
  // must propagate without crashing — then wash out of the FIR window.
  const ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto simd = fx.make(dsp::KernelPolicy::kSimd);
  ASSERT_TRUE(simd.float32_path());
  std::vector<cplx> denorm(4096, cplx{1e-310, -1e-312});
  const std::size_t frames_d = simd.process(denorm.data(), denorm.size());
  ASSERT_GT(frames_d, 0u);
  for (std::size_t f = 0; f < frames_d; ++f) {
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].real()));
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].imag()));
  }
  std::vector<cplx> nan_block(
      2048, cplx{std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_NO_THROW(simd.process(nan_block.data(), nan_block.size()));
  // Once the NaNs age out of the prototype window, output is clean again.
  std::vector<cplx> clean(fx.proto.size() + 8192, cplx{0.1, -0.1});
  const std::size_t frames_c = simd.process(clean.data(), clean.size());
  ASSERT_GT(frames_c, 0u);
  const std::size_t settled = fx.proto.size() / fx.plan.decimation + 2;
  ASSERT_GT(frames_c, settled);
  for (std::size_t f = settled; f < frames_c; ++f) {
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].real())) << "frame " << f;
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].imag())) << "frame " << f;
  }
}

// --------------------------------------------------- packet-level parity

// Timestamp tolerance for kSimd decodes: float32 can move a slicer
// crossing by a decimated sample or two — two channelizer lane samples
// bound it with an order of magnitude to spare.
constexpr double kSimdTimeTol = 256e-6;

reader::FdmaRxChain::Params fdma_params(dsp::KernelPolicy policy) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = 1;
  fp.kernels = policy;
  fp.bank = reader::FdmaRxChain::BankPolicy::kPerChannel;
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

std::vector<double> fdma_capture() {
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
  return synth.synthesize(srcs, 0.3, rng);
}

std::vector<reader::RxPacket> decode_with(dsp::KernelPolicy policy,
                                          const std::vector<double>& wave) {
  reader::FdmaRxChain chain{fdma_params(policy)};
  // Awkward chunking so the simd stages cross many lane/chunk alignments.
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    chain.process(wave.data() + off, std::min(kChunk, wave.size() - off));
  }
  return chain.drain_packets();
}

void expect_packet_parity(const std::vector<reader::RxPacket>& ref,
                          const std::vector<reader::RxPacket>& got,
                          double time_tol) {
  ASSERT_EQ(got.size(), ref.size());
  std::size_t channels = 0;
  for (const auto& p : ref) channels = std::max(channels, p.channel + 1);
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<const reader::RxPacket*> a, b;
    for (const auto& p : ref) {
      if (p.channel == c) a.push_back(&p);
    }
    for (const auto& p : got) {
      if (p.channel == c) b.push_back(&p);
    }
    ASSERT_EQ(b.size(), a.size()) << "channel " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i]->packet, a[i]->packet) << "channel " << c;
      EXPECT_NEAR(b[i]->time_s, a[i]->time_s, time_tol) << "channel " << c;
    }
  }
}

TEST(SimdParity, FdmaBankSimdMatchesScalarPackets) {
  const auto wave = fdma_capture();
  const auto scalar = decode_with(dsp::KernelPolicy::kScalar, wave);
  const auto simd = decode_with(dsp::KernelPolicy::kSimd, wave);
  ASSERT_GE(scalar.size(), 4u);  // every channel decodes its tag
  // Identical packets, timestamps inside the float32 jitter bound.
  expect_packet_parity(scalar, simd, kSimdTimeTol);
}

TEST(SimdParity, ForcedPortableTierDecodesIdenticalPackets) {
  // The runtime half of the -DARACHNET_DISABLE_SIMD guarantee: kSimd on
  // the portable vector tier decodes the same packets as on the best
  // hardware tier — an ISA downgrade (or a disabled build) degrades
  // speed, never results.
  const dsp::SimdIsa before = dsp::active_simd_isa();
  const auto wave = fdma_capture();
  const auto best = decode_with(dsp::KernelPolicy::kSimd, wave);
  dsp::force_simd_isa(dsp::SimdIsa::kGeneric);
  EXPECT_STREQ(dsp::simd::kernels().isa,
               dsp::to_string(dsp::active_simd_isa()));
  const auto portable = decode_with(dsp::KernelPolicy::kSimd, wave);
  dsp::force_simd_isa(before);
  ASSERT_GE(best.size(), 4u);
  expect_packet_parity(best, portable, kSimdTimeTol);
}

TEST(SimdParity, ForcedHardwareTierDecodesIdenticalPackets) {
  // Companion to the portable-tier check above, for the hardware tier:
  // forcing kAvx2 (where the CPU supports it — the clamp silently moves
  // an unsupported request, which skips the check here) must decode the
  // identical packet set as the auto-selected best tier.
  ActiveIsaGuard guard;
  const auto wave = fdma_capture();
  const auto best = decode_with(dsp::KernelPolicy::kSimd, wave);
  ASSERT_GE(best.size(), 4u);
  dsp::force_simd_isa(dsp::SimdIsa::kAvx2);
  if (dsp::active_simd_isa() != dsp::SimdIsa::kAvx2) {
    GTEST_SKIP() << "the CPU or the build lacks the AVX2 tier";
  }
  EXPECT_STREQ(dsp::simd::kernels().isa, "avx2");
  const auto got = decode_with(dsp::KernelPolicy::kSimd, wave);
  expect_packet_parity(best, got, kSimdTimeTol);
}

// --------------------------------------------------- seeded parity sweep

// The packet-parity proof behind the two-policy kernel layer: random FDMA
// scenarios, each decoded with kSimd on a forced ISA tier and compared
// against the kScalar oracle under the DESIGN.md §7 contract. Each trial
// is a pure function of its seed: the channel count (1..32), an on-grid
// (uniform, channelizer-eligible) or off-grid subcarrier set, the tags'
// amplitudes, phases and reply offsets, and the block split sequence the
// simd bank is fed (1-sample and odd sizes included).
struct SweepScenario {
  std::vector<double> subcarriers;
  bool on_grid = true;
  std::size_t decimation = 8;
  std::vector<double> wave;
  std::vector<std::size_t> splits;  ///< cycled over the capture
};

SweepScenario draw_scenario(std::uint64_t seed) {
  sim::Rng rng{seed};
  SweepScenario sc;
  // Odd seeds draw on-grid banks of 1..32 channels. Even seeds draw
  // off-grid banks of 1..16: they run the per-channel scalar oracle, which
  // costs ~0.5 s per trial at the 125 kS/s IQ rate wider banks need.
  sc.on_grid = seed % 2 == 1;
  const auto n =
      static_cast<std::size_t>(rng.uniform_int(1, sc.on_grid ? 32 : 16));
  // Subcarriers sit on multiples of half the chip rate (the modulator's
  // rule) from 3375 Hz, whose odd harmonics fall between 1.5 kHz grid
  // channels. Off-grid sets draw each spacing from {1500, 1687.5} Hz and
  // break a uniform draw, so the channelizer planner refuses them.
  double f = 3375.0;
  for (std::size_t k = 0; k < n; ++k) {
    sc.subcarriers.push_back(f);
    f += sc.on_grid ? 1500.0 : 1500.0 + 187.5 * rng.uniform_int(0, 1);
  }
  if (!sc.on_grid && n >= 3) {
    bool uniform = true;
    for (std::size_t k = 2; k < n; ++k) {
      uniform = uniform && sc.subcarriers[k] - sc.subcarriers[k - 1] ==
                               sc.subcarriers[1] - sc.subcarriers[0];
    }
    if (uniform) sc.subcarriers.back() += 187.5;
  }
  // The IQ passband must hold the top subcarrier plus its sidebands.
  sc.decimation = sc.subcarriers.back() + 3.0 * 375.0 < 30e3 ? 8 : 4;

  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  std::vector<acoustic::BackscatterSource> srcs;
  for (std::size_t k = 0; k < n; ++k) {
    const phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(rng.uniform_int(0x10000))};
    phy::SubcarrierModulator mod{{375.0, sc.subcarriers[k]}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = rng.uniform(0.01, 0.05);
    s.amplitude = rng.uniform(0.15, 0.25);
    s.phase_rad = rng.uniform(-kPi, kPi);
    srcs.push_back(s);
  }
  sc.wave = synth.synthesize(srcs, 0.3, rng);
  // Mostly large odd and even blocks, with 1-sample and tiny odd blocks
  // mixed in so every stage sees mid-tile and mid-decimation boundaries.
  for (int i = 0; i < 24; ++i) {
    const double u = rng.uniform();
    sc.splits.push_back(
        u < 0.2 ? 1
                : static_cast<std::size_t>(
                      u < 0.4 ? rng.uniform_int(2, 40)
                              : rng.uniform_int(1000, 20000)));
  }
  return sc;
}

reader::FdmaRxChain::Params sweep_params(const SweepScenario& sc,
                                         dsp::KernelPolicy policy) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = sc.decimation;
  fp.workers = 1;
  fp.kernels = policy;
  for (double hz : sc.subcarriers) fp.channels.push_back({hz});
  return fp;
}

struct SweepDecode {
  std::vector<reader::RxPacket> packets;
  std::vector<reader::FdmaRxChain::ChannelStats> stats;
  bool channelized = false;
};

SweepDecode decode_scenario(const SweepScenario& sc,
                            dsp::KernelPolicy policy, bool split) {
  reader::FdmaRxChain chain{sweep_params(sc, policy)};
  std::size_t off = 0;
  for (std::size_t i = 0; off < sc.wave.size(); ++i) {
    const std::size_t n =
        split ? std::min(sc.splits[i % sc.splits.size()], sc.wave.size() - off)
              : sc.wave.size();
    chain.process(sc.wave.data() + off, n);
    off += n;
  }
  return {chain.drain_packets(), chain.all_channel_stats(),
          chain.active_bank() ==
              reader::FdmaRxChain::BankPolicy::kChannelizer};
}

TEST(SimdParity, SeededScenarioSweepMatchesScalarOnEveryTier) {
  ActiveIsaGuard guard;
  constexpr std::uint64_t kSeeds = 8;
  std::vector<dsp::SimdIsa> tiers{dsp::SimdIsa::kGeneric};
  dsp::force_simd_isa(dsp::SimdIsa::kAvx2);
  const bool have_avx2 = dsp::active_simd_isa() == dsp::SimdIsa::kAvx2;
  if (have_avx2) tiers.push_back(dsp::SimdIsa::kAvx2);
  std::size_t on_grid = 0, off_grid = 0, packets = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SweepScenario sc = draw_scenario(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": " << sc.subcarriers.size()
                 << (sc.on_grid ? " on-grid" : " off-grid") << " channels");
    (sc.on_grid ? on_grid : off_grid) += 1;
    const SweepDecode ref =
        decode_scenario(sc, dsp::KernelPolicy::kScalar, false);
    packets += ref.packets.size();
    for (const dsp::SimdIsa isa : tiers) {
      dsp::force_simd_isa(isa);
      SCOPED_TRACE(dsp::to_string(dsp::active_simd_isa()));
      const SweepDecode got =
          decode_scenario(sc, dsp::KernelPolicy::kSimd, true);
      EXPECT_EQ(got.channelized, ref.channelized);
      ASSERT_EQ(got.stats.size(), ref.stats.size());
      for (std::size_t c = 0; c < ref.stats.size(); ++c) {
        EXPECT_EQ(got.stats[c].frames_ok, ref.stats[c].frames_ok)
            << "channel " << c;
        EXPECT_EQ(got.stats[c].crc_failures, ref.stats[c].crc_failures)
            << "channel " << c;
      }
      expect_packet_parity(ref.packets, got.packets, kSimdTimeTol);
    }
  }
  // The corpus must exercise both grid kinds and decode real packets.
  EXPECT_GT(on_grid, 0u);
  EXPECT_GT(off_grid, 0u);
  EXPECT_GT(packets, kSeeds);
  if (!have_avx2) GTEST_SKIP() << "AVX2 tier unavailable: portable tier only";
}

// ------------------------------------------------------- simd isa env

TEST(SimdIsaEnv, ParseAcceptsAllTiersAndRejectsJunk) {
  EXPECT_EQ(dsp::parse_simd_isa("generic"), dsp::SimdIsa::kGeneric);
  EXPECT_EQ(dsp::parse_simd_isa("neon"), dsp::SimdIsa::kNeon);
  EXPECT_EQ(dsp::parse_simd_isa("avx2"), dsp::SimdIsa::kAvx2);
  EXPECT_FALSE(dsp::parse_simd_isa("avx512").has_value());
  EXPECT_FALSE(dsp::parse_simd_isa("avx999").has_value());
  EXPECT_FALSE(dsp::parse_simd_isa("AVX2").has_value());
  EXPECT_FALSE(dsp::parse_simd_isa("").has_value());
}

TEST(SimdIsaEnv, UnrecognizedValueWarnsNamingValueAndFallback) {
  // Unset, empty and recognized values resolve silently (recognized
  // values may still clamp to the hardware, but never warn).
  const dsp::SimdIsa auto_best = dsp::simd_isa_from_env_value(nullptr);
  {
    CapturedLog cap;
    telemetry::set_log_sink(capture_sink, &cap);
    EXPECT_EQ(dsp::simd_isa_from_env_value(""), auto_best);
    (void)dsp::simd_isa_from_env_value("generic");
    (void)dsp::simd_isa_from_env_value("avx2");
    telemetry::set_log_sink(telemetry::stderr_log_sink);
    EXPECT_EQ(cap.count, 0);
  }
  // An unrecognized value — including the retired "avx512" tier — falls
  // back to auto-detection with one WARN naming what was rejected, what
  // it fell back to, and what is accepted — mirroring the kernel-policy
  // env contract.
  for (const char* bad : {"avx999", "avx512"}) {
    SCOPED_TRACE(bad);
    CapturedLog cap;
    telemetry::set_log_sink(capture_sink, &cap);
    const dsp::SimdIsa got = dsp::simd_isa_from_env_value(bad);
    telemetry::set_log_sink(telemetry::stderr_log_sink);
    EXPECT_EQ(got, auto_best);
    ASSERT_EQ(cap.count, 1);
    EXPECT_EQ(cap.level, telemetry::LogLevel::kWarn);
    EXPECT_EQ(cap.component, "kernels");
    EXPECT_EQ(cap.string_fields["value"], bad);
    EXPECT_EQ(cap.string_fields["fallback"], dsp::to_string(auto_best));
    EXPECT_EQ(cap.string_fields["accepted"], "generic|neon|avx2");
  }
}

// ------------------------------------------- float32 fold, wide banks

using ChzrFold = dsp::PolyphaseChannelizer::Params::Fold;

// The bench §1c bank recipe: a uniform grid from 3375 Hz (odd subcarrier
// harmonics land 750 Hz off-channel) and one tag per subcarrier.
reader::FdmaRxChain::Params wide_bank_params(int n, ChzrFold fold) {
  reader::FdmaRxChain::Params fp;
  // 32 channels top out near 50 kHz and need the 125 kS/s
  // (decimation-4) IQ rate; up to 16 fit the usual 62.5 kS/s bank.
  fp.ddc.decimation = n > 16 ? 4 : 8;
  fp.workers = 1;
  fp.kernels = dsp::KernelPolicy::kSimd;
  fp.bank = reader::FdmaRxChain::BankPolicy::kChannelizer;
  fp.chzr_fold = fold;
  for (int k = 0; k < n; ++k) fp.channels.push_back({3375.0 + 1500.0 * k});
  return fp;
}

std::vector<double> wide_capture(int n, double noise_sigma) {
  acoustic::UplinkWaveformSynth::Params sp;
  sp.noise_sigma = noise_sigma;
  acoustic::UplinkWaveformSynth synth{sp};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < n; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, 3375.0 + 1500.0 * k}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.18 + 0.01 * (k % 5);
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, 0.3, rng);
}

std::vector<reader::RxPacket> decode_wide(int n, ChzrFold fold,
                                          const std::vector<double>& wave) {
  reader::FdmaRxChain chain{wide_bank_params(n, fold)};
  EXPECT_EQ(chain.active_bank(),
            reader::FdmaRxChain::BankPolicy::kChannelizer);
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    chain.process(wave.data() + off, std::min(kChunk, wave.size() - off));
  }
  return chain.drain_packets();
}

TEST(SimdParity, ChannelizerF32VsF64PacketParityAcrossBankWidths) {
  // The kSimd contract applied to the float32 channelizer fast path at
  // every bank width the bench exercises: pinning the fold to float64
  // and letting it auto-select float32 must yield identical packets on
  // every channel, with timestamps inside the float32 jitter bound.
  for (const int n : {4, 8, 16, 32}) {
    SCOPED_TRACE(n);
    const auto wave = wide_capture(n, 0.004);
    const auto f64 = decode_wide(n, ChzrFold::kFloat64, wave);
    const auto f32 = decode_wide(n, ChzrFold::kAuto, wave);
    // The 32-wide grid stacks enough co-channel harmonic energy that one
    // marginal tag can miss in *both* folds; parity, not yield, is the
    // contract under test.
    ASSERT_GE(f64.size(), static_cast<std::size_t>(n) - 1)
        << "almost every channel decodes its tag";
    expect_packet_parity(f64, f32, kSimdTimeTol);
  }
}

TEST(SimdParity, LowSnrCrcOutcomesMatchAcrossFolds) {
  // Near the noise floor the CRC decision is the sharpest lens on the
  // float32 fold: a single flipped slicer decision would surface as a
  // frames_ok / crc_failures mismatch. Both folds must reach identical
  // per-channel outcomes (and the same drained packets) on a capture
  // noisy enough that decode is genuinely marginal.
  const int n = 8;
  const auto wave = wide_capture(n, 0.06);
  reader::FdmaRxChain f64{wide_bank_params(n, ChzrFold::kFloat64)};
  reader::FdmaRxChain f32{wide_bank_params(n, ChzrFold::kAuto)};
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, wave.size() - off);
    f64.process(wave.data() + off, len);
    f32.process(wave.data() + off, len);
  }
  std::uint64_t total_ok = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) {
    const auto a = f64.channel_stats(c);
    const auto b = f32.channel_stats(c);
    EXPECT_EQ(b.frames_ok, a.frames_ok) << "channel " << c;
    EXPECT_EQ(b.crc_failures, a.crc_failures) << "channel " << c;
    total_ok += a.frames_ok;
  }
  EXPECT_GE(total_ok, 1u) << "capture must not be pure noise";
  expect_packet_parity(f64.drain_packets(), f32.drain_packets(),
                       kSimdTimeTol);
}

TEST(SimdParity, ChannelizerFloat32NearNyquistLanesTrackScalar) {
  // Subcarriers landing in the top bins of the bank (~bin 121 and 127 of
  // 128 usable): the residual rotator steps nearly pi per lane sample,
  // the worst case for the float32 phasor. Lanes must still track the
  // scalar float64 reference to float32 tolerance.
  const ChzrFixture fx({29500.0, 31000.0});
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto scalar = fx.make(dsp::KernelPolicy::kScalar);
  auto simd = fx.make(dsp::KernelPolicy::kSimd);
  ASSERT_TRUE(simd.float32_path());
  sim::Rng rng{77};
  std::vector<cplx> in(16384);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t frames_a = scalar.process(in.data(), in.size());
  const std::size_t frames_b = simd.process(in.data(), in.size());
  ASSERT_EQ(frames_a, frames_b);
  ASSERT_GT(frames_a, 100u);
  for (std::size_t k = 0; k < fx.centers.size(); ++k) {
    double ref_pow = 0.0;
    for (std::size_t f = 0; f < frames_a; ++f) {
      ref_pow += std::norm(scalar.lane(k)[f]);
    }
    const double scale =
        std::max(1.0, std::sqrt(ref_pow / static_cast<double>(frames_a)));
    for (std::size_t f = 0; f < frames_a; ++f) {
      ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
      ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
    }
  }
}

}  // namespace
