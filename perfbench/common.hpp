// Helpers shared by the workload implementations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "arachnet/telemetry/metrics.hpp"
#include "capture.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Peak resident memory above a baseline, sampled by the caller.
struct RssTracker {
  std::uint64_t base = 0;
  std::uint64_t peak = 0;
  void set_base() { base = peak = rss_bytes(); }
  void sample() {
    const std::uint64_t r = rss_bytes();
    if (r > peak) peak = r;
  }
  double mib() const {
    return static_cast<double>(peak > base ? peak - base : 0) / 1048576.0;
  }
};

/// Progress the main thread samples at a fixed period while the generator
/// runs. Rates are reported as the median over periods, so a stall of the
/// machine moves one period rather than the whole figure.
class Intervals {
 public:
  static constexpr std::int64_t kPeriodNs = 250'000'000;
  /// Records decoded samples and program CPU (see program_cpu_ns) at time
  /// `t_ns`; a point whose CPU could not be read (-1) is skipped.
  void add(std::int64_t t_ns, std::uint64_t samples, std::int64_t cpu_ns) {
    if (cpu_ns >= 0) points_.push_back(Point{t_ns, samples, cpu_ns});
  }
  /// Median decoded rate over periods, MS/s.
  double median_msps() const;
  /// Median program CPU per decoded sample over periods, ns.
  double median_cpu_ns_per_sample() const;
  std::size_t periods() const noexcept {
    return points_.empty() ? 0 : points_.size() - 1;
  }

 private:
  struct Point {
    std::int64_t t_ns;
    std::uint64_t samples;
    std::int64_t cpu_ns;
  };
  std::vector<Point> points_;
};

/// Process CPU minus the CPU of the benchmark's generator, its consumer
/// and the calling thread, in nanoseconds; -1 when one of the two has
/// already exited.
std::int64_t program_cpu_ns(std::thread& generator, std::thread& consumer);

/// The main thread's duty while the generator runs, until `gen_done`:
/// every 10 ms it samples memory and, when `main_log` is on, the host's
/// queue depths (`sample_depths`, spanned as "stats"); every period it
/// records decoded samples and program CPU in `intervals`; once a second
/// it scrapes `registry` like a monitoring agent (spanned as "snapshot").
void watch_live(const std::atomic<bool>& gen_done, std::thread& generator,
                std::thread& consumer,
                const std::function<std::uint64_t()>& decoded,
                const std::function<void()>& sample_depths,
                const arachnet::telemetry::MetricsRegistry& registry,
                SpanLog& main_log, RssTracker& rss, Intervals& intervals);

/// Value of a registry counter (0 when it does not exist).
std::uint64_t counter_value(const arachnet::telemetry::MetricsRegistry& reg,
                            std::string_view name);

/// Checks the delivered packets against the ledger and the replay (see
/// check_packets), fills the ledger-derived end-to-end metrics and the
/// correctness verdict, and writes the --dump files. `mirror` enforces
/// replay equality (the closed loops, where no block is ever dropped).
/// The replay must cover every submitted block.
Outcome check_run(const Options& opt, const Streams& ss,
                  const std::vector<Packet>& delivered,
                  const ReplayResult& replay, bool mirror, Report& r);

/// Set-ups per untraced run: the live host's and kSetups - 1 on fresh
/// hosts, kSetupGapUs apart. Back to back, all of them met the same
/// moment of a shared machine, and their median moved by half from run to
/// run; spread over four seconds, by a tenth.
inline constexpr std::size_t kSetups = 21;
inline constexpr long kSetupGapUs = 200'000;

/// One set-up: its wall time, the process CPU time it took, and the CPU
/// time reference_work() took just before it.
struct SetupTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double reference_cpu_s = 0.0;
};

/// A fixed, compute-bound piece of work (a 32-tap FIR over an L1-resident
/// buffer, about 1 ms) that times the speed of the CPU at this moment.
void reference_work();

/// setup_s is set-up CPU time at this reference speed: the reference work
/// taking 1 ms.
inline constexpr double kReferenceWorkS = 1e-3;

/// Runs reference_work() and then `setup`, and returns how long each took.
template <class F>
SetupTime time_setup(F&& setup) {
  const std::int64_t r0 = thread_cpu_ns();
  reference_work();
  const std::int64_t r1 = thread_cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = process_cpu_ns();
  setup();
  return SetupTime{static_cast<double>(now_ns() - t0) * 1e-9,
                   static_cast<double>(process_cpu_ns() - c0) * 1e-9,
                   static_cast<double>(r1 - r0) * 1e-9};
}

/// Sets setup_s from the untraced run's kSetups set-ups: the median of
/// their CPU time at the reference speed (kReferenceWorkS).
void record_setups(const std::vector<SetupTime>& setups, Report& r);

/// Sleeps for `us` microseconds.
void sleep_us(long us);

/// Asks for 1 us timer slack on the calling thread, so its sleeps (the
/// paced schedule, poll periods, set-up waits) wake close to on time.
void tight_timer_slack();

/// The span logs of one run, one per thread (README "The trace"); all
/// disabled in an untraced run.
struct Logs {
  explicit Logs(bool on)
      : gen{1, on}, con{2, on}, main{3, on}, replay{4, on} {}
  SpanLog gen, con, main, replay;
  std::vector<const SpanLog*> all() const {
    return {&gen, &con, &main, &replay};
  }
};

/// The run sequence every workload shares. The caller renders the input,
/// sizes `out` and the bookkeeping of `ss`, and sets the memory baseline
/// of `rss` first; then:
///
/// - untraced: set up a host, run it live for opt.seconds into `out`,
///   `check` the run, tear the host down, and time kSetups - 1 more
///   set-ups on fresh hosts for setup_s (after the live phase: set-ups
///   before it raised rss_mib by a quarter);
/// - traced: run an untraced half on a host of its own, then a traced
///   half into `out` on another, then `check`.
///
/// `setup(Host&, SpanLog&)` constructs and warms up a host;
/// `live(Host&, double seconds, Logs&, Live&)` runs the live phase;
/// `check(Host&, Live&, double untraced_msps)` does everything after
/// it that needs the host, with the untraced half's throughput (0 in an
/// untraced run).
template <class Host, class Live, class Setup, class RunLive, class Check>
void run_phases(const Options& opt, Streams& ss, RssTracker& rss, Logs& logs,
                Live& out, Setup&& setup, RunLive&& live, Check&& check,
                Report& r) {
  tight_timer_slack();
  Logs off{false};
  if (!opt.trace) {
    std::vector<SetupTime> setups;
    {
      Host host;
      setups.push_back(time_setup([&] { setup(host, off.main); }));
      rss.sample();
      live(host, opt.seconds, off, out);
      check(host, out, 0.0);
    }
    while (setups.size() < kSetups) {
      Host fresh;
      ss.reset();
      sleep_us(kSetupGapUs);
      setups.push_back(time_setup([&] { setup(fresh, off.main); }));
    }
    record_setups(setups, r);
    return;
  }
  // The two halves' throughput ratio is the tracing overhead; the traced
  // half is what gets replayed.
  double untraced_msps = 0.0;
  {
    Host host;
    Live half;
    ss.reset();
    setup(host, off.main);
    live(host, opt.seconds / 2, off, half);
    untraced_msps = static_cast<double>(half.samples) / half.wall_s * 1e-6;
  }
  ss.reset();
  Host host;
  setup(host, logs.main);
  live(host, opt.seconds / 2, logs, out);
  check(host, out, untraced_msps);
}

/// The live decode counters: reader.frames_ok, reader.crc_failures and
/// their pass ratio.
void decode_counters(std::uint64_t frames_ok, std::uint64_t crc_failures,
                     Report& r);

/// The traced run's per-layer metrics about the harness itself (scrape
/// time, generator CPU, render time, tracing overhead), and the trace
/// file.
void finish_traced(const Options& opt, double untraced_msps,
                   double traced_msps, double gen_cpu_share, double render_s,
                   const Logs& logs, Report& r);

/// Sets throughput_msps and cpu_ms_per_msample: the medians over the
/// sampling periods, or the whole-run figures when the run is too short
/// to have enough periods. The whole-run figures are always noted.
void apply_rates(const Intervals& iv, double whole_msps,
                 double whole_cpu_ns_per_sample, Report& r);

}  // namespace perfbench
