#include "common.hpp"

#include <sys/prctl.h>

#include <chrono>
#include <thread>

namespace perfbench {

std::int64_t program_cpu_ns(std::thread& generator, std::thread& consumer) {
  const std::int64_t gen = thread_cpu_ns(generator);
  const std::int64_t con = thread_cpu_ns(consumer);
  if (gen < 0 || con < 0) return -1;
  return process_cpu_ns() - gen - con - thread_cpu_ns();
}

void watch_live(const std::atomic<bool>& gen_done, std::thread& generator,
                std::thread& consumer,
                const std::function<std::uint64_t()>& decoded,
                const std::function<void()>& sample_depths,
                const arachnet::telemetry::MetricsRegistry& registry,
                SpanLog& main_log, RssTracker& rss, Intervals& intervals) {
  intervals.add(now_ns(), decoded(), program_cpu_ns(generator, consumer));
  std::int64_t next_point = now_ns() + Intervals::kPeriodNs;
  std::int64_t next_scrape = now_ns() + 1'000'000'000;
  while (!gen_done.load()) {
    sleep_us(10'000);
    rss.sample();
    if (now_ns() >= next_point) {
      intervals.add(now_ns(), decoded(), program_cpu_ns(generator, consumer));
      next_point += Intervals::kPeriodNs;
    }
    if (main_log.enabled()) {
      SpanScope span(main_log, "stats", 0);
      sample_depths();
    }
    if (now_ns() >= next_scrape) {
      SpanScope span(main_log, "snapshot", 0);
      (void)registry.snapshot();
      next_scrape += 1'000'000'000;
    }
  }
}

std::uint64_t counter_value(const arachnet::telemetry::MetricsRegistry& reg,
                            std::string_view name) {
  for (const auto& c : reg.snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

Outcome check_run(const Options& opt, const Streams& ss,
                  const std::vector<Packet>& delivered,
                  const ReplayResult& replay, bool mirror, Report& r) {
  const Outcome o = check_packets(ss, delivered, replay);
  if (!opt.dump_dir.empty()) {
    dump_ledger(opt.dump_dir + "/ledger.txt", ss.ledger);
    dump_packets(opt.dump_dir + "/delivered.txt", delivered);
  }
  r.end_to_end["packet_loss_ratio"] =
      o.transmitted == 0 ? 0.0
                         : static_cast<double>(o.lost) /
                               static_cast<double>(o.transmitted);
  r.end_to_end["packet_delivery_ratio"] =
      o.transmitted == 0 ? 0.0
                         : static_cast<double>(o.intact) /
                               static_cast<double>(o.transmitted);
  r.end_to_end["false_packet_ratio"] =
      o.delivered == 0 ? 0.0
                       : static_cast<double>(o.false_packets) /
                             static_cast<double>(o.delivered);
  r.end_to_end["packet_latency_p50_ms"] = percentile(o.latency_ms, 0.50);
  r.end_to_end["packet_latency_p99_ms"] = percentile(o.latency_ms, 0.99);
  r.samples["packet_latency_p50_ms"] = o.latency_ms.size();
  r.samples["packet_latency_p99_ms"] = o.latency_ms.size();
  r.notes.push_back("ledger: transmitted " + std::to_string(o.transmitted) +
                    ", delivered " + std::to_string(o.delivered) +
                    ", intact " + std::to_string(o.intact) + ", lost " +
                    std::to_string(o.lost) + ", false " +
                    std::to_string(o.false_packets));
  if (o.transmitted == 0) r.fail("no packet was transmitted");
  if (o.false_packets != 0) {
    r.fail("delivered packets that were never transmitted");
  }
  if (o.replay_match) {
    r.notes.push_back("mirror: live packet set equals the replay");
  } else if (mirror) {
    r.fail("mirror: " + o.mismatch);
  } else {
    r.notes.push_back("mirror (not enforced on the open loop): " +
                      o.mismatch);
  }
  return o;
}

namespace {

double pct_ms(const std::vector<double>& v, double q) {
  return percentile(v, q) * 1e3;
}

}  // namespace

void record_setups(const std::vector<SetupTime>& setups, Report& r) {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> reference;
  std::vector<double> scaled;
  for (const auto& s : setups) {
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
    reference.push_back(s.reference_cpu_s);
    scaled.push_back(s.cpu_s / s.reference_cpu_s * kReferenceWorkS);
  }
  // CPU time rather than wall time: on a shared machine the wall time of
  // a set-up swings with time stolen by other guests and with how soon an
  // idle vCPU wakes, none of which is set-up work. At the reference speed:
  // the host's own speed changed for minutes at a time, moving the CPU
  // time of a set-up and of the reference work together by up to twice.
  r.end_to_end["setup_s"] = median(scaled);
  r.samples["setup_s"] = setups.size();
  r.notes.push_back(
      "set-ups: cpu median " + std::to_string(pct_ms(cpu, 0.5)) +
      " ms, reference work median " + std::to_string(pct_ms(reference, 0.5)) +
      " ms; wall min " + std::to_string(pct_ms(wall, 0.0)) + " ms, median " +
      std::to_string(pct_ms(wall, 0.5)) + " ms");
}

void reference_work() {
  constexpr std::size_t kTaps = 32;
  constexpr std::size_t kLen = 2048;  // 16 KB: stays in L1
  static double x[kLen];
  static double h[kTaps];
  for (std::size_t i = 0; i < kLen; ++i) {
    x[i] = 1e-3 * static_cast<double>(i % 97);
  }
  for (std::size_t k = 0; k < kTaps; ++k) h[k] = 1e-2 * static_cast<double>(k);
  double acc = 0.0;
  for (int pass = 0; pass < 40; ++pass) {
    for (std::size_t i = kTaps; i < kLen; ++i) {
      double y = 0.0;
      for (std::size_t k = 0; k < kTaps; ++k) y += x[i - k] * h[k];
      x[i - kTaps] = 0.5 * (y + x[i - kTaps]);
      acc += y;
    }
  }
  volatile double sink = acc;
  (void)sink;
}

void decode_counters(std::uint64_t frames_ok, std::uint64_t crc_failures,
                     Report& r) {
  const std::uint64_t framed = frames_ok + crc_failures;
  r.per_layer["reader.crc_pass_ratio"] =
      framed == 0
          ? 0.0
          : static_cast<double>(frames_ok) / static_cast<double>(framed);
  r.per_layer["reader.frames_ok"] = static_cast<double>(frames_ok);
  r.per_layer["reader.crc_failures"] = static_cast<double>(crc_failures);
}

void finish_traced(const Options& opt, double untraced_msps,
                   double traced_msps, double gen_cpu_share, double render_s,
                   const Logs& logs, Report& r) {
  auto& L = r.per_layer;
  const auto snap_ns = logs.main.durations("snapshot");
  L["telemetry.snapshot_us.p50"] = percentile(snap_ns, 0.50) * 1e-3;
  r.samples["telemetry.snapshot_us.p50"] = snap_ns.size();
  L["gen.cpu_share"] = gen_cpu_share;
  L["gen.render_s"] = render_s;
  L["trace.overhead_pct"] =
      (untraced_msps - traced_msps) / untraced_msps * 100.0;
  r.notes.push_back("throughput: untraced half " +
                    std::to_string(untraced_msps) + " MS/s, traced half " +
                    std::to_string(traced_msps) + " MS/s");
  if (!opt.trace_path.empty() &&
      !write_chrome_trace(opt.trace_path, logs.all())) {
    r.notes.push_back("could not write " + opt.trace_path);
  }
}

double Intervals::median_msps() const {
  std::vector<double> r;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    r.push_back(static_cast<double>(b.samples - a.samples) * 1e3 /
                static_cast<double>(b.t_ns - a.t_ns));
  }
  return median(std::move(r));
}

double Intervals::median_cpu_ns_per_sample() const {
  std::vector<double> r;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto& a = points_[i - 1];
    const auto& b = points_[i];
    if (b.samples == a.samples) continue;
    r.push_back(static_cast<double>(b.cpu_ns - a.cpu_ns) /
                static_cast<double>(b.samples - a.samples));
  }
  return median(std::move(r));
}

void apply_rates(const Intervals& iv, double whole_msps,
                 double whole_cpu_ns_per_sample, Report& r) {
  const bool use_periods = iv.periods() >= 8;
  r.end_to_end["throughput_msps"] = use_periods ? iv.median_msps() : whole_msps;
  // ns per sample and ms per million samples are the same number.
  r.end_to_end["cpu_ms_per_msample"] =
      use_periods ? iv.median_cpu_ns_per_sample() : whole_cpu_ns_per_sample;
  if (use_periods) {
    r.samples["throughput_msps"] = iv.periods();
    r.samples["cpu_ms_per_msample"] = iv.periods();
  }
  r.notes.push_back("whole run: " + std::to_string(whole_msps) + " MS/s, " +
                    std::to_string(whole_cpu_ns_per_sample) + " ms/MS");
}

void tight_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

void sleep_us(long us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace perfbench
