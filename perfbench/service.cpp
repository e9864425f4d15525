// service_paced and service_saturation: one ReaderService with 32
// single-channel sessions at 500 kS/s each (TTL 0.25 s), each session fed
// its own seeded capture. Paced is an open loop (every block submitted at
// its due time, phases staggered across the 20 ms block period);
// saturation is a gap-free closed loop (every in-flight window kept full,
// nothing ever submitted into a refusal).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "arachnet/dsp/ddc.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using arachnet::dsp::Ddc;
using arachnet::reader::RxChain;
using arachnet::reader::service::ReaderService;
using arachnet::reader::service::SessionConfig;
using arachnet::reader::service::SessionId;
using arachnet::telemetry::MetricsRegistry;

constexpr std::size_t kSessions = 32;
constexpr std::size_t kWarmupBlocks = 2;  // 40 ms: no packet completes
/// Harness bookkeeping is sized for up to this many blocks per second per
/// session (1 GS/s over the fleet).
constexpr double kMaxBlocksPerS = 3'125;
constexpr std::int64_t kPeriodNs = 20'000'000;  // one block of samples
constexpr long kIdleSleepUs = 100;  // generator, consumer and set-up waits

SessionConfig session_config() {
  SessionConfig cfg;
  cfg.ttl_s = 0.25;
  return cfg;
}

/// Default service, except that the admission budget admits all sessions.
ReaderService::Params service_params(MetricsRegistry* reg) {
  ReaderService::Params p;
  p.metrics = reg;
  const unsigned hw = std::thread::hardware_concurrency();
  const double workers = hw == 0 ? 1.0 : static_cast<double>(hw);
  p.sessions_per_core =
      std::max(p.sessions_per_core, static_cast<double>(kSessions) / workers);
  return p;
}

/// The service and the registry it reports into. Members are destroyed in
/// reverse order, so the service goes first.
struct Host {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<ReaderService> svc;
  std::vector<SessionId> ids;
};

/// Submits the next block of stream `i` (due at `due`); returns whether
/// the service accepted it.
bool submit_next(Host& host, Streams& ss, std::size_t i, std::int64_t due,
                 SpanLog& log) {
  const std::uint64_t key = block_key(i, ss.st[i].next);
  ReaderService::Block block;
  {
    SpanScope span(log, "acquire_block", key);
    block = host.svc->acquire_block(host.ids[i]);
  }
  const double* src = ss.caps[i].block(ss.st[i].next);
  block.assign(src, src + kBlockSamples);
  ss.take(i, due < 0 ? now_ns() : due);
  SpanScope span(log, "submit", key);
  return host.svc->submit(host.ids[i], std::move(block));
}

/// Closed-loop admission: tracks each session's in-flight window and the
/// dispatch-queue depth so the generator never submits into a refusal.
/// session_stats() counts a block processed a moment before the service
/// releases its in-flight credit, so the generator keeps one credit in
/// hand (at most max_blocks_in_flight - 1 blocks by its own count).
class Window {
 public:
  enum class State { kOpen, kSessionFull, kQueueFull };

  Window(Host& host, SpanLog& log)
      : host_(host),
        log_(log),
        cap_(session_config().max_blocks_in_flight),
        sent_(host.ids.size(), 0),
        done_(host.ids.size(), 0) {
    for (std::size_t i = 0; i < host.ids.size(); ++i) {
      SpanScope span(log_, "session_stats", block_key(i, 0));
      const auto s = host.svc->session_stats(host.ids[i]);
      sent_[i] = s->blocks_submitted;
      done_[i] = s->blocks_processed + s->blocks_dropped;
    }
    SpanScope span(log_, "stats", 0);
    const auto s = host.svc->stats();
    queue_cap_ = s.dispatch_capacity;
    depth_ = s.dispatch_depth;
  }

  State state(std::size_t i) {
    if (sent_[i] - done_[i] + 1 >= cap_) {
      SpanScope span(log_, "session_stats", block_key(i, 0));
      const auto s = host_.svc->session_stats(host_.ids[i]);
      done_[i] = s->blocks_processed + s->blocks_dropped;
      if (sent_[i] - done_[i] + 1 >= cap_) return State::kSessionFull;
    }
    if (depth_ >= queue_cap_) {
      SpanScope span(log_, "stats", 0);
      depth_ = host_.svc->stats().dispatch_depth;
      if (depth_ >= queue_cap_) return State::kQueueFull;
    }
    return State::kOpen;
  }

  void sent(std::size_t i) {
    ++sent_[i];
    ++depth_;
  }

 private:
  Host& host_;
  SpanLog& log_;
  std::size_t cap_;
  std::size_t queue_cap_ = 0;
  std::size_t depth_ = 0;
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> done_;
};

/// Constructs and starts the service, opens every session, and runs the
/// warm-up blocks through each, one block at a time: with one block in
/// flight, one worker decodes at a time, so the set-up's CPU time does not
/// depend on how many workers the scheduler happened to run at once
/// (together, they slowed each other by a third).
void setup(Host& host, Streams& ss, SpanLog& log) {
  SpanScope span(log, "setup", 0);
  host.registry = std::make_unique<MetricsRegistry>();
  host.svc =
      std::make_unique<ReaderService>(service_params(host.registry.get()));
  host.svc->start();
  host.ids.clear();
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto id = host.svc->open_session(session_config());
    if (!id) throw std::runtime_error("session rejected at admission");
    host.ids.push_back(*id);
  }
  for (std::size_t k = 1; k <= kWarmupBlocks; ++k) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (!submit_next(host, ss, i, -1, log)) {
        throw std::runtime_error("warm-up block refused");
      }
      while (host.svc->session_stats(host.ids[i])->blocks_processed < k) {
        sleep_us(kIdleSleepUs);
      }
    }
  }
}

struct LiveResult {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t offered = 0;    ///< measured blocks submitted
  std::uint64_t refused = 0;    ///< submit() returned false
  double cpu_ns_per_sample = 0.0;
  double gen_cpu_share = 0.0;
  std::vector<double> lag_ms;   ///< open loop: submit time - due time
  std::vector<double> poll_ns;  ///< traced: every poll_packet() call
  std::vector<double> depth;    ///< traced: sampled dispatch depth
  std::vector<Packet> delivered;
  Intervals intervals;
  ReaderService::Stats stats;
  std::uint64_t frames_ok = 0;
  std::uint64_t crc_failures = 0;
};

void run_live(Host& host, Streams& ss, const Options& opt, double seconds,
              bool paced, Logs& logs, RssTracker& rss, LiveResult& out) {
  ReaderService& svc = *host.svc;
  SpanLog& gen_log = logs.gen;
  SpanLog& con_log = logs.con;
  SpanLog& main_log = logs.main;
  const std::size_t n = host.ids.size();
  const std::size_t first = ss.st[0].next;
  const std::size_t before = ss.submitted();
  std::uint64_t samples_before = 0;
  for (const auto id : host.ids) {
    samples_before += svc.session_stats(id)->samples_processed;
  }
  std::atomic<bool> gen_done{false};
  std::atomic<bool> drained{false};
  std::int64_t gen_cpu = 0;
  std::int64_t con_cpu = 0;
  const std::int64_t t_start = now_ns();
  const std::int64_t cpu_start = process_cpu_ns();
  const std::int64_t main_cpu_start = thread_cpu_ns();
  const std::int64_t deadline =
      t_start + static_cast<std::int64_t>(seconds * 1e9);

  std::thread consumer([&] {
    tight_timer_slack();
    const std::int64_t c0 = thread_cpu_ns();
    bool last_sweep = false;
    for (;;) {
      const bool finishing = drained.load();
      bool got = false;
      const long sweep = con_log.open("poll_sweep", 0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t a = con_log.enabled() ? now_ns() : 0;
        auto p = svc.poll_packet(host.ids[i]);
        if (con_log.enabled()) {
          const std::int64_t b = now_ns();
          out.poll_ns.push_back(static_cast<double>(b - a));
          if (p) con_log.record("poll_packet", 0, con_log.id_of(sweep), a, b);
        }
        if (p) {
          got = true;
          out.delivered.push_back(Packet{static_cast<std::uint32_t>(i), 0,
                                         p->packet.tid, p->packet.payload,
                                         p->time_s, now_ns()});
        }
      }
      con_log.close(sweep, static_cast<std::int64_t>(n));
      if (got) continue;
      if (last_sweep) break;
      // Every block is resolved: one more empty sweep and we are done.
      if (finishing) {
        last_sweep = true;
        continue;
      }
      sleep_us(kIdleSleepUs);
    }
    con_cpu = thread_cpu_ns() - c0;
  });

  std::thread generator([&] {
    tight_timer_slack();
    const std::int64_t c0 = thread_cpu_ns();
    const auto done = [&](std::size_t k) {
      return opt.blocks != 0 ? k >= opt.blocks : now_ns() >= deadline;
    };
    if (paced) {
      // Block k of session i is due at t0 + k*20 ms + i*20 ms/n.
      const std::int64_t t0 = now_ns() + 1'000'000;
      for (std::size_t k = 0;; ++k) {
        const std::int64_t row = t0 + static_cast<std::int64_t>(k) * kPeriodNs;
        if (opt.blocks != 0 ? k >= opt.blocks : row >= deadline) break;
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t due =
              row + static_cast<std::int64_t>(i) * kPeriodNs /
                        static_cast<std::int64_t>(n);
          std::this_thread::sleep_until(
              std::chrono::steady_clock::time_point{
                  std::chrono::nanoseconds{due}});
          out.lag_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
          if (!submit_next(host, ss, i, due, gen_log)) ++out.refused;
        }
      }
    } else {
      Window win{host, gen_log};
      for (;;) {
        bool any = false;
        bool all_done = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (done(ss.st[i].next - first)) continue;
          all_done = false;
          const auto state = win.state(i);
          if (state == Window::State::kQueueFull) break;
          if (state == Window::State::kSessionFull) continue;
          if (!submit_next(host, ss, i, -1, gen_log)) ++out.refused;
          win.sent(i);
          any = true;
        }
        if (all_done) break;
        if (!any) sleep_us(kIdleSleepUs);  // every window full: sleep
      }
    }
    gen_cpu = thread_cpu_ns() - c0;
    gen_done.store(true);
  });

  const auto all_resolved = [&] {
    for (const auto id : host.ids) {
      const auto s = svc.session_stats(id);
      if (s->blocks_processed + s->blocks_dropped != s->blocks_submitted) {
        return false;
      }
    }
    return true;
  };
  const auto decoded = [&] {
    std::uint64_t total = 0;
    for (const auto id : host.ids) {
      total += svc.session_stats(id)->samples_processed;
    }
    return total;
  };
  watch_live(
      gen_done, generator, consumer, decoded,
      [&] {
        out.depth.push_back(static_cast<double>(svc.stats().dispatch_depth));
      },
      *host.registry, main_log, rss, out.intervals);
  generator.join();
  while (!all_resolved()) sleep_us(200);
  drained.store(true);
  consumer.join();
  const std::int64_t t_end = now_ns();
  rss.sample();
  const std::int64_t bench_cpu =
      gen_cpu + con_cpu + (thread_cpu_ns() - main_cpu_start);
  const std::int64_t cpu = process_cpu_ns() - cpu_start - bench_cpu;
  std::uint64_t samples_after = 0;
  for (const auto id : host.ids) {
    const auto s = svc.session_stats(id);
    samples_after += s->samples_processed;
    out.frames_ok += s->frames_ok;
    out.crc_failures += s->crc_failures;
  }
  out.wall_s = static_cast<double>(t_end - t_start) * 1e-9;
  out.samples = samples_after - samples_before;
  out.offered = ss.submitted() - before;
  out.cpu_ns_per_sample =
      static_cast<double>(cpu) / static_cast<double>(out.samples);
  out.gen_cpu_share = static_cast<double>(gen_cpu) * 1e-9 / out.wall_s;
  out.stats = svc.stats();
}

/// Synchronous replay: every session's submitted blocks through a
/// standalone RxChain configured as the service configures it, drained
/// after every block (the reference decode that dates each packet to its
/// emitting block). With `layers`, sessions replay one after another and
/// each chain call is timed per block, and a standalone Ddc built as the
/// chain builds it replays the first loops. Without, nothing is timed, so
/// the sessions replay in parallel.
struct ChainReplay {
  ReplayResult result;
  std::vector<std::vector<double>> chain_ns;  ///< [session][block]
  double chain_total_ns = 0.0;
  std::uint64_t chain_samples = 0;
  double ddc_ns = 0.0;
  std::uint64_t ddc_samples = 0;
};

ChainReplay replay_sessions(const Streams& ss, bool layers, SpanLog& log) {
  const std::size_t sessions = ss.caps.size();
  ChainReplay out;
  out.result.packets.resize(sessions);
  out.chain_ns.resize(sessions);
  std::vector<double> ddc_ns(sessions, 0.0);
  std::vector<std::uint64_t> ddc_samples(sessions, 0);
  RxChain::Params cp = session_config().chain;
  cp.retain_iq_points = false;  // as every service session runs it
  const auto replay = [&](std::size_t i, SpanLog& lg) {
    const Capture& cap = ss.caps[i];
    const std::size_t blocks = ss.st[i].next;
    SpanLog off{0, false};
    RxChain chain{cp};
    for (std::size_t g = 0; g < blocks + kLookaheadBlocks; ++g) {
      // Lookahead blocks only date packets still in flight at the end of
      // the live run; they are neither timed nor traced.
      const bool timed = layers && g < blocks;
      SpanScope span(timed ? lg : off, "RxChain::process", block_key(i, g));
      const std::int64_t t0 = timed ? now_ns() : 0;
      chain.process(cap.block(g), kBlockSamples);
      if (timed) out.chain_ns[i].push_back(static_cast<double>(now_ns() - t0));
      for (const auto& p : chain.packets()) {
        out.result.packets[i].push_back(
            Packet{static_cast<std::uint32_t>(i), 0, p.packet.tid,
                   p.packet.payload, p.time_s, static_cast<std::int64_t>(g)});
      }
      chain.clear_packets();
    }
    if (!layers) return;
    // The chain's down-converter: its DDC with the auto-bandwidth cutoff.
    Ddc::Params dp = cp.ddc;
    dp.cutoff_hz = std::clamp(3.5 * cp.chip_rate, 1.5e3, 12.5e3);
    Ddc ddc{dp};
    std::vector<std::complex<double>> iq;
    const std::size_t n = std::min(blocks, 2 * cap.blocks_per_loop());
    for (std::size_t g = 0; g < n; ++g) {
      SpanScope span(lg, "Ddc::process", block_key(i, g));
      const std::int64_t t0 = now_ns();
      iq.clear();
      ddc.process(std::span<const double>{cap.block(g), kBlockSamples}, iq);
      ddc_ns[i] += static_cast<double>(now_ns() - t0);
    }
    ddc_samples[i] = n * kBlockSamples;
  };
  if (layers) {
    for (std::size_t i = 0; i < sessions; ++i) replay(i, log);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const unsigned hw = std::thread::hardware_concurrency();
    for (unsigned t = 0; t < std::clamp(hw, 1u, 4u); ++t) {
      pool.emplace_back([&] {
        SpanLog off{0, false};
        for (std::size_t i; (i = next.fetch_add(1)) < sessions;) {
          replay(i, off);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    for (double dt : out.chain_ns[i]) out.chain_total_ns += dt;
    out.chain_samples += ss.st[i].next * kBlockSamples;
    out.ddc_ns += ddc_ns[i];
    out.ddc_samples += ddc_samples[i];
  }
  return out;
}

/// Everything after the live phase: the ledger check against a replay of
/// every live block, the end-to-end figures and, traced, the layer budget.
void check_service(const Options& opt, bool paced, const Streams& ss,
                   const LiveResult& live, double untraced_msps,
                   double render_s, const RssTracker& rss, Logs& logs,
                   Report& r) {
  const double msps = static_cast<double>(live.samples) / live.wall_s * 1e-6;
  apply_rates(live.intervals, msps, live.cpu_ns_per_sample, r);
  r.end_to_end["rss_mib"] = rss.mib();
  r.attempted = live.offered;
  r.failed = live.stats.blocks_dropped;
  r.end_to_end["block_drop_ratio"] =
      static_cast<double>(live.stats.blocks_dropped) /
      static_cast<double>(live.offered);
  if (!paced && (live.refused != 0 || live.stats.blocks_dropped != 0)) {
    r.fail("closed loop lost blocks: " + std::to_string(live.refused) +
           " refused, " + std::to_string(live.stats.blocks_dropped) +
           " dropped");
  }
  if (paced) {
    r.notes.push_back(
        "generator lateness: p50 " +
        std::to_string(percentile(live.lag_ms, 0.50)) + " ms, p99 " +
        std::to_string(percentile(live.lag_ms, 0.99)) + " ms, max " +
        std::to_string(percentile(live.lag_ms, 1.0)) + " ms over " +
        std::to_string(live.lag_ms.size()) + " blocks");
  }

  const ChainReplay rp = replay_sessions(ss, opt.trace, logs.replay);
  const Outcome o =
      check_run(opt, ss, live.delivered, rp.result, /*mirror=*/!paced, r);
  if (!opt.trace) return;

  auto& L = r.per_layer;
  const double chain_ns =
      rp.chain_total_ns / static_cast<double>(rp.chain_samples);
  L["dsp.ddc.ns_per_sample"] = rp.ddc_ns / static_cast<double>(rp.ddc_samples);
  L["reader.chain.ns_per_sample"] = chain_ns;
  decode_counters(live.frames_ok, live.crc_failures, r);
  const auto submit_ns = logs.gen.durations("submit");
  L["service.submit_us.p50"] = percentile(submit_ns, 0.50) * 1e-3;
  L["service.submit_us.p99"] = percentile(submit_ns, 0.99) * 1e-3;
  r.samples["service.submit_us.p50"] = submit_ns.size();
  r.samples["service.submit_us.p99"] = submit_ns.size();
  L["service.poll_us.p50"] = percentile(live.poll_ns, 0.50) * 1e-3;
  r.samples["service.poll_us.p50"] = live.poll_ns.size();
  std::vector<double> wait_ms;
  for (std::size_t k = 0; k < o.latency_ms.size(); ++k) {
    const std::uint64_t key = o.emit_key[k];
    const auto& per_block = rp.chain_ns[key >> 32];
    const std::size_t g = key & 0xffffffffu;
    if (g < per_block.size()) {
      wait_ms.push_back(o.latency_ms[k] - per_block[g] * 1e-6);
    }
  }
  L["service.wait_ms.p50"] = percentile(wait_ms, 0.50);
  L["service.wait_ms.p99"] = percentile(wait_ms, 0.99);
  r.samples["service.wait_ms.p50"] = wait_ms.size();
  r.samples["service.wait_ms.p99"] = wait_ms.size();
  L["service.dispatch_depth.mean"] = mean(live.depth);
  L["service.dispatch_depth.max"] = percentile(live.depth, 1.0);
  L["service.blocks_dropped"] = static_cast<double>(live.stats.blocks_dropped);
  L["service.blocks_expired"] = static_cast<double>(live.stats.blocks_expired);
  L["service.packets_dropped"] =
      static_cast<double>(live.stats.packets_dropped);
  L["service.host_cpu_ns_per_sample"] = live.cpu_ns_per_sample - chain_ns;
  L["budget.coverage"] = chain_ns / live.cpu_ns_per_sample;
  L["gen.lag_ms.p99"] = percentile(live.lag_ms, 0.99);
  r.samples["gen.lag_ms.p99"] = live.lag_ms.size();
  finish_traced(opt, untraced_msps, msps, live.gen_cpu_share, render_s, logs,
                r);
}

}  // namespace

Report run_service(const Options& opt, bool paced) {
  Report r;
  Streams ss;
  const std::int64_t t_render = now_ns();
  for (std::size_t i = 0; i < kSessions; ++i) {
    ss.caps.push_back(render_session(opt.seed, i));
  }
  const double render_s = static_cast<double>(now_ns() - t_render) * 1e-9;
  LiveResult live;
  const std::size_t blocks =
      kWarmupBlocks + (opt.blocks != 0 ? opt.blocks
                                       : static_cast<std::size_t>(
                                             opt.seconds * kMaxBlocksPerS));
  prefault(live.delivered, ss.reserve(blocks));
  prefault(live.lag_ms, kSessions * blocks);
  RssTracker rss;
  rss.set_base();
  Logs logs{opt.trace};
  run_phases<Host>(
      opt, ss, rss, logs, live,
      [&](Host& host, SpanLog& log) { setup(host, ss, log); },
      [&](Host& host, double seconds, Logs& lg, LiveResult& out) {
        run_live(host, ss, opt, seconds, paced, lg, rss, out);
      },
      [&](Host&, LiveResult& out, double untraced_msps) {
        check_service(opt, paced, ss, out, untraced_msps, render_s, rss, logs,
                      r);
      },
      r);
  return r;
}

}  // namespace perfbench
