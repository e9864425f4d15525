// wideband_bank: one RealtimeReader in FDMA mode, 16 subcarriers on the
// uniform 3375 + 1500*k Hz grid (so the channelizer engages), fed 10 000-
// sample blocks through submit() as a closed loop with back-pressure.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using arachnet::dsp::Ddc;
using arachnet::dsp::PolyphaseChannelizer;
using arachnet::reader::FdmaRxChain;
using arachnet::reader::RealtimeReader;
using arachnet::reader::RxPacket;
using arachnet::telemetry::MetricsRegistry;

constexpr std::size_t kWarmupBlocks = 4;  // 80 ms: no packet completes
/// Harness bookkeeping is sized for up to this many blocks per second
/// (100 MS/s).
constexpr double kMaxBlocksPerS = 10'000;

/// The bank as a user configures it: default kernel policy, default
/// workers, default bank policy (the channelizer engages on this grid).
FdmaRxChain::Params bank_params(std::size_t workers, MetricsRegistry* reg) {
  FdmaRxChain::Params f;
  f.ddc.decimation = 8;  // 62.5 kS/s IQ: the grid tops out near 26 kHz
  for (double hz : bank_subcarriers()) f.channels.push_back({hz});
  f.workers = workers;
  f.metrics = reg;
  return f;
}

/// The reader and the registry it reports into. Members are destroyed in
/// reverse order, so the reader goes first.
struct Host {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<RealtimeReader> reader;
};

RealtimeReader::Block make_block(const Capture& cap, std::size_t g) {
  const double* b = cap.block(g);
  return RealtimeReader::Block(b, b + kBlockSamples);
}

/// Constructs and starts the host and runs the warm-up blocks through it.
void setup(Host& host, Streams& ss, SpanLog& log) {
  SpanScope span(log, "setup", 0);
  host.registry = std::make_unique<MetricsRegistry>();
  RealtimeReader::Params p;
  p.fdma = bank_params(0, nullptr);  // the reader forwards its registry
  p.metrics = host.registry.get();
  host.reader = std::make_unique<RealtimeReader>(std::move(p));
  host.reader->start();
  for (std::size_t i = 0; i < kWarmupBlocks; ++i) {
    auto block = make_block(ss.caps[0], ss.st[0].next);
    ss.take(0, now_ns());
    host.reader->submit(std::move(block));
  }
  while (host.reader->samples_processed() < kWarmupBlocks * kBlockSamples) {
    sleep_us(50);
  }
}

struct LiveResult {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t offered = 0;  ///< measured blocks submitted
  std::uint64_t refused = 0;  ///< submit() returned false
  double cpu_ms_per_msample = 0.0;
  double gen_cpu_share = 0.0;
  std::vector<Packet> delivered;
  Intervals intervals;
  RealtimeReader::Stats stats;
  std::vector<double> input_depth;
  std::vector<double> output_depth;
};

/// Closed loop: the generator submits the next block as soon as submit()
/// returns; the consumer blocks in wait_packet(); the main thread scrapes
/// the registry once a second and samples memory (and, traced, stats()).
void run_live(Host& host, Streams& ss, const Options& opt, double seconds,
              Logs& logs, RssTracker& rss, LiveResult& out) {
  RealtimeReader& reader = *host.reader;
  SpanLog& gen_log = logs.gen;
  SpanLog& con_log = logs.con;
  SpanLog& main_log = logs.main;
  Stream& st = ss.st[0];
  const std::size_t first = st.next;
  std::atomic<bool> gen_done{false};
  std::int64_t gen_cpu = 0;
  std::int64_t con_cpu = 0;
  const std::int64_t t_start = now_ns();
  const std::int64_t cpu_start = process_cpu_ns();
  const std::int64_t main_cpu_start = thread_cpu_ns();
  const auto deadline = t_start + static_cast<std::int64_t>(seconds * 1e9);

  std::thread consumer([&] {
    const std::int64_t c0 = thread_cpu_ns();
    for (;;) {
      std::optional<RxPacket> p;
      {
        SpanScope span(con_log, "wait_packet", 0);
        p = reader.wait_packet();
      }
      if (!p) break;
      out.delivered.push_back(Packet{0, static_cast<std::uint32_t>(p->channel),
                                     p->packet.tid, p->packet.payload,
                                     p->time_s, now_ns()});
    }
    con_cpu = thread_cpu_ns() - c0;
  });
  std::thread generator([&] {
    const std::int64_t c0 = thread_cpu_ns();
    for (;;) {
      const std::size_t measured = st.next - first;
      if (opt.blocks != 0 ? measured >= opt.blocks : now_ns() >= deadline) {
        break;
      }
      auto block = make_block(*st.cap, st.next);
      const std::size_t g = ss.take(0, now_ns());
      SpanScope span(gen_log, "submit", block_key(0, g));
      if (!reader.submit(std::move(block))) ++out.refused;
    }
    gen_cpu = thread_cpu_ns() - c0;
    gen_done.store(true);
  });

  watch_live(
      gen_done, generator, consumer, [&] { return reader.samples_processed(); },
      [&] {
        const auto s = reader.stats();
        out.input_depth.push_back(static_cast<double>(s.input_depth));
        out.output_depth.push_back(static_cast<double>(s.output_depth));
      },
      *host.registry, main_log, rss, out.intervals);
  generator.join();
  {
    SpanScope span(main_log, "stop", 0);
    reader.stop();  // drains every accepted block, then closes the output
  }
  consumer.join();
  const std::int64_t t_end = now_ns();
  rss.sample();
  const std::int64_t bench_cpu =
      gen_cpu + con_cpu + (thread_cpu_ns() - main_cpu_start);
  const std::int64_t cpu = process_cpu_ns() - cpu_start - bench_cpu;
  out.wall_s = static_cast<double>(t_end - t_start) * 1e-9;
  out.offered = st.next - first;
  out.samples = out.offered * kBlockSamples;
  const double msamples = static_cast<double>(out.samples) * 1e-6;
  out.cpu_ms_per_msample = static_cast<double>(cpu) * 1e-6 / msamples;
  out.gen_cpu_share = static_cast<double>(gen_cpu) * 1e-9 / out.wall_s;
  out.stats = reader.stats();
}

/// Synchronous replay of blocks [0, blocks) through standalone layer
/// instances. Always: a sequential bank (workers = 1), drained after every
/// block — the reference decode that dates each packet to the block whose
/// processing emits it. With `layers`: also a standalone Ddc and
/// PolyphaseChannelizer built as the bank builds them, and a bank with the
/// default workers, each call timed by a span.
struct BankReplay {
  ReplayResult result;
  std::vector<Packet> default_workers_packets;
  std::uint64_t frames = 0;
  std::uint64_t drained = 0;  ///< packets drained from the timed blocks
  double ddc_ns = 0, chzr_ns = 0, w1_ns = 0, wd_ns = 0, drain_ns = 0;
};

BankReplay replay_bank(const Capture& cap, std::size_t blocks,
                       std::size_t lookahead, bool layers, SpanLog& log) {
  BankReplay out;
  out.result.packets.resize(1);
  MetricsRegistry reg1;
  MetricsRegistry regd;
  FdmaRxChain w1{bank_params(1, &reg1)};
  std::optional<FdmaRxChain> wd;
  std::optional<Ddc> ddc;
  std::optional<PolyphaseChannelizer> chzr;
  if (layers) {
    wd.emplace(bank_params(0, &regd));
    // The bank's own front end, rebuilt from its public recipe.
    const FdmaRxChain::Params bp = bank_params(0, nullptr);
    Ddc::Params dp = bp.ddc;
    dp.cutoff_hz = bank_subcarriers().back() + 3.0 * bp.chip_rate;
    dp.kernels = bp.kernels;
    ddc.emplace(dp);
    const double iq_rate = ddc->output_rate_hz();
    const auto plan =
        PolyphaseChannelizer::plan(iq_rate, bp.chip_rate, bank_subcarriers());
    if (!plan.viable) {
      throw std::runtime_error("channelizer plan not viable: " + plan.reason);
    }
    chzr.emplace(PolyphaseChannelizer::Params{
        .sample_rate_hz = iq_rate,
        .fft_size = plan.fft_size,
        .decimation = plan.decimation,
        .prototype = arachnet::dsp::design_lowpass(plan.cutoff_hz, iq_rate,
                                                   plan.taps),
        .center_hz = bank_subcarriers(),
        .kernels = bp.kernels,
        .fold = bp.chzr_fold});
  }
  std::vector<std::complex<double>> iq;
  std::vector<RxPacket> drained;
  SpanLog off{0, false};
  SpanLog* lg = &log;
  const auto timed = [&](const char* name, std::uint64_t key,
                         std::uint64_t parent, auto&& fn) {
    SpanScope span(*lg, name, key, parent);
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0);
  };
  for (std::size_t g = 0; g < blocks + lookahead; ++g) {
    if (g == blocks) {
      // Lookahead blocks only date packets still in flight at the end of
      // the live run; they are neither timed nor traced.
      layers = false;
      lg = &off;
    }
    const double* x = cap.block(g);
    const std::uint64_t key = block_key(0, g);
    SpanScope blk(*lg, "replay.block", key);
    const std::uint64_t parent = blk.id();
    if (layers) {
      out.ddc_ns += timed("Ddc::process", key, parent, [&] {
        iq.clear();
        ddc->process(std::span<const double>{x, kBlockSamples}, iq);
      });
      out.chzr_ns += timed("PolyphaseChannelizer::process", key, parent, [&] {
        out.frames += chzr->process(iq.data(), iq.size());
      });
    }
    const double w1_ns = timed("FdmaRxChain::process(workers=1)", key, parent,
                               [&] { w1.process(x, kBlockSamples); });
    const double drain_ns = timed("FdmaRxChain::drain_packets", key, parent,
                                  [&] { w1.drain_packets(drained); });
    if (g < blocks) {
      out.w1_ns += w1_ns;
      out.drain_ns += drain_ns;
      out.drained += drained.size();
    }
    for (const auto& p : drained) {
      out.result.packets[0].push_back(
          Packet{0, static_cast<std::uint32_t>(p.channel), p.packet.tid,
                 p.packet.payload, p.time_s, static_cast<std::int64_t>(g)});
    }
    if (layers) {
      out.wd_ns += timed("FdmaRxChain::process(workers=default)", key, parent,
                         [&] { wd->process(x, kBlockSamples); });
      wd->drain_packets(drained);
      for (const auto& p : drained) {
        out.default_workers_packets.push_back(
            Packet{0, static_cast<std::uint32_t>(p.channel), p.packet.tid,
                   p.packet.payload, p.time_s, static_cast<std::int64_t>(g)});
      }
    }
  }
  return out;
}

/// True when `b` equals the prefix of `a` emitted before block `blocks`.
bool same_packets(const std::vector<Packet>& a, const std::vector<Packet>& b,
                  std::size_t blocks) {
  std::size_t n = 0;
  while (n < a.size() && a[n].at < static_cast<std::int64_t>(blocks)) ++n;
  if (n != b.size()) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].channel != b[i].channel || a[i].tid != b[i].tid ||
        a[i].payload != b[i].payload || a[i].time_s != b[i].time_s ||
        a[i].at != b[i].at) {
      return false;
    }
  }
  return true;
}

/// Everything after the live phase: the ledger check against a replay of
/// every live block, the end-to-end figures and, traced, mirror fidelity
/// and the layer budget.
void check_bank(const Options& opt, const Streams& ss, const Host& host,
                const LiveResult& live, double untraced_msps, double render_s,
                const RssTracker& rss, Logs& logs, Report& r) {
  const double msps = static_cast<double>(live.samples) / live.wall_s * 1e-6;
  apply_rates(live.intervals, msps, live.cpu_ms_per_msample, r);
  r.end_to_end["rss_mib"] = rss.mib();
  // Back-pressure never drops a block; submit() refuses only when stopped.
  r.attempted = live.offered;
  r.failed = live.refused;
  r.end_to_end["block_drop_ratio"] =
      static_cast<double>(live.refused) / static_cast<double>(live.offered);

  const std::size_t replayed = ss.st[0].next;
  const BankReplay rp = replay_bank(ss.caps[0], replayed, kLookaheadBlocks,
                                    opt.trace, logs.replay);
  check_run(opt, ss, live.delivered, rp.result, /*mirror=*/true, r);
  if (!opt.trace) return;

  const std::uint64_t live_frames =
      counter_value(*host.registry, "fdma.chzr.frames");
  if (rp.frames != live_frames) {
    r.fail("replayed channelizer frames " + std::to_string(rp.frames) +
           " != live fdma.chzr.frames " + std::to_string(live_frames));
  } else {
    r.notes.push_back("mirror: channelizer frames " +
                      std::to_string(rp.frames) + " match the live bank");
  }
  if (!same_packets(rp.result.packets[0], rp.default_workers_packets,
                    replayed)) {
    r.fail("default-worker replay decodes differently from workers=1");
  }
  std::uint64_t frames_ok = 0;
  std::uint64_t crc_failures = 0;
  for (const auto& ch : live.stats.channels) {
    frames_ok += ch.frames_ok;
    crc_failures += ch.crc_failures;
  }
  const double n = static_cast<double>(replayed * kBlockSamples);
  auto& L = r.per_layer;
  L["dsp.ddc.ns_per_sample"] = rp.ddc_ns / n;
  L["dsp.channelizer.ns_per_sample"] = rp.chzr_ns / n;
  L["dsp.channelizer.frames"] = static_cast<double>(rp.frames);
  L["reader.bank.decode_ns_per_sample"] =
      (rp.w1_ns - rp.ddc_ns - rp.chzr_ns) / n;
  L["reader.bank.process_ns_per_sample"] = rp.wd_ns / n;
  L["reader.bank.workers_gain_x"] = rp.w1_ns / rp.wd_ns;
  L["reader.bank.drain_ns_per_packet"] =
      rp.drained == 0 ? 0.0 : rp.drain_ns / static_cast<double>(rp.drained);
  decode_counters(frames_ok, crc_failures, r);
  const auto submit_ns = logs.gen.durations("submit");
  L["realtime.submit_ms.p50"] = percentile(submit_ns, 0.50) * 1e-6;
  L["realtime.submit_ms.p99"] = percentile(submit_ns, 0.99) * 1e-6;
  r.samples["realtime.submit_ms.p50"] = submit_ns.size();
  r.samples["realtime.submit_ms.p99"] = submit_ns.size();
  L["realtime.stall_s"] = live.stats.backpressure_stall_s;
  L["realtime.input_depth.mean"] = mean(live.input_depth);
  L["realtime.output_depth.max"] = percentile(live.output_depth, 1.0);
  const double live_ns = 1e3 / msps;
  const double layer_ns = (rp.wd_ns + rp.drain_ns) / n;
  L["realtime.host_ns_per_sample"] = live_ns - layer_ns;
  L["budget.coverage"] = layer_ns / live_ns;
  finish_traced(opt, untraced_msps, msps, live.gen_cpu_share, render_s, logs,
                r);
}

}  // namespace

Report run_wideband(const Options& opt) {
  Report r;
  Streams ss;
  const std::int64_t t_render = now_ns();
  ss.caps.push_back(render_bank(opt.seed));
  const double render_s = static_cast<double>(now_ns() - t_render) * 1e-9;
  LiveResult live;
  const std::size_t blocks =
      kWarmupBlocks + (opt.blocks != 0 ? opt.blocks
                                       : static_cast<std::size_t>(
                                             opt.seconds * kMaxBlocksPerS));
  prefault(live.delivered, ss.reserve(blocks));
  RssTracker rss;
  rss.set_base();
  Logs logs{opt.trace};
  run_phases<Host>(
      opt, ss, rss, logs, live,
      [&](Host& host, SpanLog& log) { setup(host, ss, log); },
      [&](Host& host, double seconds, Logs& lg, LiveResult& out) {
        run_live(host, ss, opt, seconds, lg, rss, out);
      },
      [&](Host& host, LiveResult& out, double untraced_msps) {
        check_bank(opt, ss, host, out, untraced_msps, render_s, rss, logs, r);
      },
      r);
  return r;
}

}  // namespace perfbench
