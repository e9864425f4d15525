// arachnet_top: live terminal view of a running reader fleet.
//
// Spins up a ReaderService fleet streaming real packet waveforms (the
// soak bench's workload), attaches a telemetry::HealthMonitor to the
// service's registry, and redraws a top(1)-style screen every sampling
// period: per-session block/packet rates, stage-latency attribution
// (dispatch wait / chain process / packet emit p50+p99), queue depths,
// and any raised health.* flags.
//
// Usage: example_arachnet_top [--sessions=4] [--seconds=10]
//                             [--period=0.5] [--stall] [--fleet=N]
//                             [--jsonl=PATH] [--prom=PATH]
//
//   --stall   also opens a session on a deliberately never-started
//             second service, so the stall watchdog visibly raises
//             health.victim.stalled after two periods.
//   --fleet   fleet view instead of the session view: N RealtimeReader
//             instances share one registry under per-instance scopes
//             (r0., r1., ...) and the screen shows one row per reader —
//             block/packet rates and queue depths straight from the
//             scoped metrics.
//   --jsonl   stream every monitor sample to PATH (arachnet.monitor.v1).
//   --prom    dump a Prometheus text exposition of the registry to PATH
//             on exit (scrape-file integration; see README).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/reader/service/service_health.hpp"
#include "arachnet/telemetry/telemetry.hpp"

using namespace arachnet;
using reader::service::ReaderService;
using reader::service::SessionConfig;
using reader::service::SessionId;

namespace {

constexpr double kSampleRate = 500000.0;
constexpr std::size_t kBlockSamples = 10000;
constexpr double kBlockPeriodS =
    static_cast<double>(kBlockSamples) / kSampleRate;  // 20 ms

std::vector<double> render_template() {
  sim::Rng rng{21};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  const phy::UlPacket pkt{.tid = 3, .payload = 0x5AA5};
  acoustic::BackscatterSource s;
  s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

double hist_stat(const telemetry::HistogramDelta* h, bool p99) {
  if (h == nullptr) return 0.0;
  return p99 ? h->interval_p99 : h->interval_p50;
}

double counter_rate(const telemetry::SnapshotDelta& d, const std::string& n) {
  const auto* c = d.counter(n);
  return c != nullptr ? c->rate_per_s : 0.0;
}

/// --fleet=N: one RealtimeReader per reader, all instrumenting the same
/// registry under per-instance scopes. The per-reader rows below read the
/// scoped names back — the display is the consumer the scoping exists for.
int run_fleet_view(std::size_t readers, double seconds, double period_s,
                   const std::string& jsonl_path) {
  telemetry::MetricsRegistry registry;
  std::vector<std::unique_ptr<reader::RealtimeReader>> fleet;
  std::vector<std::string> scopes;
  for (std::size_t i = 0; i < readers; ++i) {
    scopes.push_back("r" + std::to_string(i) + ".");
    reader::RealtimeReader::Params rp;
    rp.metrics = &registry;
    rp.metrics_scope = scopes.back();
    rp.drop_on_full_output = true;  // the display drains lazily
    fleet.push_back(std::make_unique<reader::RealtimeReader>(rp));
    fleet.back()->start();
  }

  telemetry::HealthMonitor::Params mp;
  mp.registry = &registry;
  mp.period_s = period_s;
  mp.source = "arachnet_top_fleet";
  mp.jsonl_path = jsonl_path;
  telemetry::HealthMonitor monitor{mp};
  monitor.start();

  // Paced producers, one per reader, staggered like a line of stations.
  std::atomic<bool> stop_producers{false};
  const auto wave = render_template();
  std::vector<std::thread> producers;
  producers.reserve(readers);
  for (std::size_t i = 0; i < readers; ++i) {
    producers.emplace_back([&, i] {
      std::size_t off = (i * 17) % (wave.size() / kBlockSamples);
      auto next = std::chrono::steady_clock::now();
      while (!stop_producers.load(std::memory_order_relaxed)) {
        next += std::chrono::microseconds(
            static_cast<long>(kBlockPeriodS * 1e6));
        std::this_thread::sleep_until(next);
        const auto* src = wave.data() + off * kBlockSamples;
        fleet[i]->submit({src, src + kBlockSamples});
        off = (off + 1) % (wave.size() / kBlockSamples);
        while (fleet[i]->poll_packet().has_value()) {
        }
      }
    });
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::printf("\x1b[2J");
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
    const auto latest = monitor.latest();
    if (!latest.has_value()) continue;
    const auto& d = latest->delta;

    std::printf("\x1b[H\x1b[1marachnet_top --fleet\x1b[0m  sample #%llu  "
                "dt %.2fs  %zu readers  kernels %s/%s\x1b[K\n\n",
                static_cast<unsigned long long>(latest->index), latest->dt_s,
                readers, dsp::to_string(dsp::default_kernel_policy()),
                dsp::to_string(dsp::active_simd_isa()));

    std::printf("\x1b[4mreader   blocks/s   packets/s   in-q   out-q   "
                "block p99 ms\x1b[0m\x1b[K\n");
    double total_blocks = 0.0, total_packets = 0.0;
    for (std::size_t i = 0; i < readers; ++i) {
      const auto& sc = scopes[i];
      const double blocks = counter_rate(d, sc + "reader.blocks");
      const double packets = counter_rate(d, sc + "reader.packets_emitted");
      total_blocks += blocks;
      total_packets += packets;
      std::printf("  r%-5zu %9.1f %11.2f %6.0f %7.0f %14.3f\x1b[K\n", i,
                  blocks, packets,
                  registry.gauge(sc + "reader.input_depth").value(),
                  registry.gauge(sc + "reader.output_depth").value(),
                  hist_stat(d.histogram(sc + "reader.block_ms"), true));
    }
    std::printf("  \x1b[1mtotal  %9.1f %11.2f\x1b[0m\x1b[K\n", total_blocks,
                total_packets);

    std::printf("\nhealth:\x1b[K\n");
    if (latest->raised.empty()) {
      std::printf("  \x1b[32mall clear\x1b[0m\x1b[K\n");
    } else {
      for (const auto& flag : latest->raised) {
        std::printf("  \x1b[31m%s\x1b[0m\x1b[K\n", flag.c_str());
      }
    }
    std::printf("\x1b[J");
    std::fflush(stdout);
  }

  stop_producers.store(true);
  for (auto& p : producers) p.join();
  monitor.stop();
  for (auto& r : fleet) r->stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 4;
  std::size_t fleet_readers = 0;
  double seconds = 10.0;
  double period_s = 0.5;
  bool demo_stall = false;
  std::string jsonl_path;
  std::string prom_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sessions=", 0) == 0) {
      sessions = static_cast<std::size_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--fleet=", 0) == 0) {
      fleet_readers = static_cast<std::size_t>(std::stoul(arg.substr(8)));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::stod(arg.substr(10));
    } else if (arg.rfind("--period=", 0) == 0) {
      period_s = std::stod(arg.substr(9));
    } else if (arg == "--stall") {
      demo_stall = true;
    } else if (arg.rfind("--jsonl=", 0) == 0) {
      jsonl_path = arg.substr(8);
    } else if (arg.rfind("--prom=", 0) == 0) {
      prom_path = arg.substr(7);
    }
  }

  if (fleet_readers > 0) {
    return run_fleet_view(fleet_readers, seconds, period_s, jsonl_path);
  }

  telemetry::MetricsRegistry registry;
  ReaderService::Params params;
  params.metrics = &registry;
  params.sessions_per_core = 8.0;
  ReaderService svc{params};
  svc.start();

  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionConfig cfg;
    cfg.priority = 1;
    cfg.ttl_s = 0.25;
    const auto id = svc.open_session(cfg);
    if (!id.has_value()) {
      std::fprintf(stderr, "session %zu rejected at admission\n", i);
      return 1;
    }
    ids.push_back(*id);
  }

  // The monitor samples the same registry the service instruments; its
  // health flags land there too, so the screen and any scrape agree.
  telemetry::HealthMonitor::Params mp;
  mp.registry = &registry;
  mp.period_s = period_s;
  mp.source = "arachnet_top";
  mp.jsonl_path = jsonl_path;
  telemetry::HealthMonitor monitor{mp};
  for (const auto id : ids) {
    reader::service::watch_session(monitor, svc, id);
  }
  reader::service::watch_service(monitor, svc);

  // Optional stall demo: a session on a service whose workers never
  // started accepts submits (up to its in-flight cap) but processes
  // nothing — exactly the signature the stall watchdog looks for.
  ReaderService::Params frozen_params;
  frozen_params.workers = 1;
  ReaderService frozen{frozen_params};
  SessionId victim_id = 0;
  if (demo_stall) {
    const auto vid = frozen.open_session(SessionConfig{});
    victim_id = vid.value_or(0);
    if (vid.has_value()) {
      telemetry::HealthMonitor::ProgressProbe probe;
      probe.name = "victim";
      // Processed-only progress: the frozen service drops over-cap
      // submits, and those drops must not read as forward progress here.
      probe.progress = [&frozen, id = *vid] {
        const auto st = frozen.session_stats(id);
        return st ? st->blocks_processed : 0;
      };
      probe.demand = [&frozen, id = *vid] {
        const auto st = frozen.session_stats(id);
        return st ? st->blocks_submitted : 0;
      };
      monitor.add_probe(std::move(probe));
    }
  }

  monitor.start();

  // Paced producers, one per session (the soak workload).
  std::atomic<bool> stop_producers{false};
  const auto wave = render_template();
  std::vector<std::thread> producers;
  producers.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    producers.emplace_back([&, i] {
      std::size_t off = (i * 17) % (wave.size() / kBlockSamples);
      auto next = std::chrono::steady_clock::now();
      while (!stop_producers.load(std::memory_order_relaxed)) {
        next += std::chrono::microseconds(
            static_cast<long>(kBlockPeriodS * 1e6));
        std::this_thread::sleep_until(next);
        auto blk = svc.acquire_block(ids[i]);
        const auto* src = wave.data() + off * kBlockSamples;
        blk.assign(src, src + kBlockSamples);
        off = (off + 1) % (wave.size() / kBlockSamples);
        svc.submit(ids[i], std::move(blk));
        while (svc.poll_packet(ids[i]).has_value()) {
        }
      }
    });
  }

  // Render loop: one frame per sampling period.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(seconds);
  std::printf("\x1b[2J");  // clear once; frames repaint from home
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::duration<double>(period_s));
    if (demo_stall && victim_id != 0) {
      // Keep demand (blocks_submitted) advancing every frame so the
      // watchdog reads this as a fed-but-frozen session, not an idle one.
      frozen.submit(victim_id, std::vector<double>(16, 0.0));
    }
    const auto latest = monitor.latest();
    if (!latest.has_value()) continue;
    const auto& d = latest->delta;

    std::printf("\x1b[H\x1b[1marachnet_top\x1b[0m  sample #%llu  dt %.2fs  "
                "period %.2fs  kernels %s/%s\x1b[K\n",
                static_cast<unsigned long long>(latest->index), latest->dt_s,
                monitor.period_s(),
                dsp::to_string(dsp::default_kernel_policy()),
                dsp::to_string(dsp::active_simd_isa()));
    const auto st = svc.stats();
    const auto* blocks = d.counter("service.blocks");
    const auto* pk_em = d.counter("reader.packets_emitted");
    const auto* drops = d.counter("session.blocks_dropped");
    std::printf("fleet: %zu/%zu sessions  queue %zu/%zu  "
                "blocks/s %.1f  packets/s %.1f  drops/s %.1f\x1b[K\n\n",
                st.active_sessions, st.max_sessions, st.dispatch_depth,
                st.dispatch_capacity,
                blocks != nullptr ? blocks->rate_per_s : 0.0,
                pk_em != nullptr ? pk_em->rate_per_s : 0.0,
                drops != nullptr ? drops->rate_per_s : 0.0);

    std::printf("\x1b[4mstage latency (interval)   p50 ms     p99 ms\x1b[0m"
                "\x1b[K\n");
    const struct {
      const char* label;
      const char* hist;
    } stages[] = {
        {"dispatch wait", "service.stage.dispatch_wait_ms"},
        {"chain process", "service.stage.process_ms"},
        {"packet emit", "service.stage.emit_ms"},
        {"end-to-end", "service.block_ms"},
    };
    for (const auto& stg : stages) {
      const auto* h = d.histogram(stg.hist);
      std::printf("  %-22s %8.3f   %8.3f\x1b[K\n", stg.label,
                  hist_stat(h, false), hist_stat(h, true));
    }

    std::printf("\n\x1b[4msession   blocks   packets   dropped   "
                "state\x1b[0m\x1b[K\n");
    for (const auto id : ids) {
      const auto ss = svc.session_stats(id);
      if (!ss.has_value()) continue;
      std::printf("  %-7llu %8llu %9llu %9llu   %s\x1b[K\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(ss->blocks_processed),
                  static_cast<unsigned long long>(ss->packets_emitted),
                  static_cast<unsigned long long>(ss->blocks_dropped),
                  ss->closed ? "closed" : "live");
    }

    std::printf("\nhealth:\x1b[K\n");
    if (latest->raised.empty()) {
      std::printf("  \x1b[32mall clear\x1b[0m\x1b[K\n");
    } else {
      for (const auto& flag : latest->raised) {
        std::printf("  \x1b[31m%s\x1b[0m\x1b[K\n", flag.c_str());
      }
    }
    std::printf("\x1b[J");
    std::fflush(stdout);
  }

  stop_producers.store(true);
  for (auto& p : producers) p.join();
  monitor.stop();
  for (const auto id : ids) svc.close_session(id);
  svc.stop();

  if (!prom_path.empty()) {
    std::ofstream prom{prom_path};
    if (prom) {
      telemetry::write_prometheus_text(registry.snapshot(), prom);
      std::printf("prometheus exposition: %s\n", prom_path.c_str());
    } else {
      std::fprintf(stderr, "failed to open %s\n", prom_path.c_str());
    }
  }
  if (!jsonl_path.empty()) {
    std::printf("monitor time-series: %s (%llu samples)\n", jsonl_path.c_str(),
                static_cast<unsigned long long>(monitor.samples_taken()));
  }
  return 0;
}
