// HealthMonitor tests: the snapshot delta/rate math the monitor samples
// are built from, the watchdog semantics (stall / saturation / storm),
// the JSONL time-series stream, Prometheus exposition, and the sampling
// thread lifecycle. The stalled-session case drives a real ReaderService
// whose workers never started — the acceptance scenario: the flag must
// be up within two sampling periods.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/reader/service/service_health.hpp"
#include "arachnet/telemetry/telemetry.hpp"

using namespace arachnet;
using namespace arachnet::telemetry;
using reader::service::ReaderService;
using reader::service::SessionConfig;

// --------------------------------------------------------- delta math

TEST(SnapshotDelta, CounterDeltaAndRate) {
  MetricsSnapshot prev;
  prev.counters.push_back({"a.count", 100});
  MetricsSnapshot cur;
  cur.counters.push_back({"a.count", 150});

  const auto d = compute_snapshot_delta(prev, cur, 2.0);
  ASSERT_NE(d.counter("a.count"), nullptr);
  EXPECT_EQ(d.counter("a.count")->value, 150u);
  EXPECT_EQ(d.counter("a.count")->delta, 50u);
  EXPECT_DOUBLE_EQ(d.counter("a.count")->rate_per_s, 25.0);
  EXPECT_FALSE(d.counter("a.count")->reset);
}

TEST(SnapshotDelta, CounterRegisteredMidIntervalStartsFromZero) {
  MetricsSnapshot prev;  // empty
  MetricsSnapshot cur;
  cur.counters.push_back({"fresh", 30});

  const auto d = compute_snapshot_delta(prev, cur, 3.0);
  ASSERT_NE(d.counter("fresh"), nullptr);
  EXPECT_EQ(d.counter("fresh")->delta, 30u);
  EXPECT_DOUBLE_EQ(d.counter("fresh")->rate_per_s, 10.0);
  EXPECT_FALSE(d.counter("fresh")->reset);
}

TEST(SnapshotDelta, CounterResetIsFlaggedNotNegative) {
  MetricsSnapshot prev;
  prev.counters.push_back({"c", 1000});
  MetricsSnapshot cur;
  cur.counters.push_back({"c", 40});

  const auto d = compute_snapshot_delta(prev, cur, 2.0);
  ASSERT_NE(d.counter("c"), nullptr);
  EXPECT_TRUE(d.counter("c")->reset);
  EXPECT_EQ(d.counter("c")->delta, 40u);  // the post-reset value
  EXPECT_DOUBLE_EQ(d.counter("c")->rate_per_s, 20.0);
}

TEST(SnapshotDelta, CounterOnlyInPrevIsDropped) {
  MetricsSnapshot prev;
  prev.counters.push_back({"gone", 5});
  const auto d = compute_snapshot_delta(prev, MetricsSnapshot{}, 1.0);
  EXPECT_TRUE(d.counters.empty());
  EXPECT_EQ(d.counter("gone"), nullptr);
}

TEST(SnapshotDelta, ZeroDtGivesZeroRates) {
  MetricsSnapshot prev;
  prev.counters.push_back({"c", 0});
  MetricsSnapshot cur;
  cur.counters.push_back({"c", 10});
  const auto d = compute_snapshot_delta(prev, cur, 0.0);
  EXPECT_EQ(d.counter("c")->delta, 10u);
  EXPECT_DOUBLE_EQ(d.counter("c")->rate_per_s, 0.0);
}

namespace {

MetricsSnapshot::HistogramValue make_hist(
    std::string name, double lo, double hi,
    std::vector<std::uint64_t> counts, std::uint64_t underflow,
    std::uint64_t overflow, double sum) {
  MetricsSnapshot::HistogramValue h;
  h.name = std::move(name);
  h.lo = lo;
  h.hi = hi;
  h.counts = std::move(counts);
  h.count = underflow + overflow;
  for (auto c : h.counts) h.count += c;
  h.underflow = underflow;
  h.overflow = overflow;
  h.sum = sum;
  return h;
}

}  // namespace

TEST(SnapshotDelta, HistogramIntervalPercentilesUseOnlyNewSamples) {
  // Cumulative: 6 old samples in the low bin, then 4 new in the high bin.
  // Interval percentiles must reflect the new samples only.
  MetricsSnapshot prev;
  prev.histograms.push_back(make_hist("h", 0.0, 10.0, {6, 0}, 0, 0, 6.0));
  MetricsSnapshot cur;
  cur.histograms.push_back(make_hist("h", 0.0, 10.0, {6, 4}, 0, 0, 34.0));

  const auto d = compute_snapshot_delta(prev, cur, 2.0);
  const auto* h = d.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->rate_per_s, 2.0);
  EXPECT_DOUBLE_EQ(h->interval_mean, 7.0);  // (34-6)/4
  EXPECT_GE(h->interval_p50, 5.0);  // all interval mass is in [5,10)
  EXPECT_LE(h->interval_p99, 10.0);
  EXPECT_LT(h->cumulative_p50, 5.0);  // cumulative still low-bin-dominated
  EXPECT_FALSE(h->reset);
}

TEST(SnapshotDelta, HistogramResetTreatsCurrentAsWholeInterval) {
  MetricsSnapshot prev;
  prev.histograms.push_back(make_hist("h", 0.0, 10.0, {50, 0}, 0, 0, 50.0));
  MetricsSnapshot cur;  // the instrument restarted with fewer samples
  cur.histograms.push_back(make_hist("h", 0.0, 10.0, {0, 3}, 0, 0, 21.0));

  const auto d = compute_snapshot_delta(prev, cur, 1.0);
  const auto* h = d.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->reset);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->interval_mean, 7.0);
}

// ---------------------------------------------- percentile edge cases

TEST(HistogramPercentile, EmptyReturnsZero) {
  const auto h = make_hist("h", 0.0, 10.0, {0, 0}, 0, 0, 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(HistogramPercentile, SingleBinInterpolatesWithinIt) {
  const auto h = make_hist("h", 0.0, 10.0, {8}, 0, 0, 40.0);
  const double p50 = h.percentile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramPercentile, OverflowOnlyClampsToHi) {
  const auto h = make_hist("h", 0.0, 10.0, {0, 0}, 0, 5, 500.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
}

TEST(HistogramPercentile, UnderflowOnlyClampsToLo) {
  const auto h = make_hist("h", 2.0, 10.0, {0, 0}, 5, 0, 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
}

// ------------------------------------------------------------ sampling

TEST(HealthMonitor, SampleOnceComputesRatesAndBoundsHistory) {
  MetricsRegistry reg;
  Counter& c = reg.counter("work.done");
  HealthMonitor::Params p;
  p.registry = &reg;
  p.history = 3;
  HealthMonitor mon{p};

  for (int i = 0; i < 5; ++i) {
    c.add(10);
    mon.sample_once();
  }
  EXPECT_EQ(mon.samples_taken(), 5u);
  const auto hist = mon.history();
  ASSERT_EQ(hist.size(), 3u);  // bounded ring, oldest evicted
  EXPECT_EQ(hist.back().index, 4u);
  // latest() returns the sample by value — keep it alive past the
  // counter() pointer lookup.
  const auto latest = mon.latest();
  ASSERT_TRUE(latest.has_value());
  const auto* cd = latest->delta.counter("work.done");
  ASSERT_NE(cd, nullptr);
  EXPECT_EQ(cd->value, 50u);
  EXPECT_EQ(cd->delta, 10u);
  EXPECT_GT(cd->rate_per_s, 0.0);  // dt is tiny but positive
}

TEST(HealthMonitor, FirstSampleHasNoIntervalRates) {
  MetricsRegistry reg;
  reg.counter("c").add(100);
  HealthMonitor mon{{.registry = &reg}};
  const auto s = mon.sample_once();
  EXPECT_DOUBLE_EQ(s.dt_s, 0.0);
  ASSERT_NE(s.delta.counter("c"), nullptr);
  EXPECT_DOUBLE_EQ(s.delta.counter("c")->rate_per_s, 0.0);
}

TEST(HealthMonitor, JsonlStreamCarriesSchemaAndOneLinePerSample) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(2.5);
  reg.histogram("h.ms", 0.0, 10.0, 4).record(1.0);

  std::ostringstream out;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.jsonl_out = &out;
  p.source = "test";
  HealthMonitor mon{p};
  mon.sample_once();
  mon.sample_once();

  std::istringstream lines{out.str()};
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"schema\":\"arachnet.monitor.v1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"source\":\"test\""), std::string::npos);
    EXPECT_NE(line.find("\"wall_ns\""), std::string::npos);
    EXPECT_NE(line.find("\"steady_ns\""), std::string::npos);
    EXPECT_NE(line.find("\"h.ms\""), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(HealthMonitor, BackgroundThreadSamplesOnPeriod) {
  MetricsRegistry reg;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.period_s = 0.01;
  HealthMonitor mon{p};
  mon.start();
  EXPECT_TRUE(mon.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  mon.stop();
  EXPECT_FALSE(mon.running());
  EXPECT_GE(mon.samples_taken(), 2u);
  // stop() is idempotent and the history survives it.
  mon.stop();
  EXPECT_FALSE(mon.history().empty());
}

// ----------------------------------------------------------- watchdogs

TEST(HealthMonitor, SaturationWatchRaisesAfterConsecutivePeriods) {
  MetricsRegistry reg;
  Gauge& depth = reg.gauge("q.depth");
  std::vector<HealthMonitor::HealthEvent> events;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.on_event = [&](const HealthMonitor::HealthEvent& e) {
    events.push_back(e);
  };
  HealthMonitor mon{p};
  mon.add_saturation_watch({.name = "q",
                            .depth_gauge = "q.depth",
                            .capacity = 10.0,
                            .threshold = 0.9,
                            .periods = 2});

  depth.set(9.0);
  mon.sample_once();  // over_for = 1
  EXPECT_TRUE(events.empty());
  mon.sample_once();  // over_for = 2 -> raise
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthMonitor::FlagKind::kSaturated);
  EXPECT_TRUE(events[0].raised);
  EXPECT_EQ(events[0].flag, "health.q.saturated");

  // The flag gauge is visible in the registry itself.
  bool found = false;
  for (const auto& g : reg.snapshot().gauges) {
    if (g.name == "health.q.saturated") {
      found = true;
      EXPECT_DOUBLE_EQ(g.value, 1.0);
    }
  }
  EXPECT_TRUE(found);

  depth.set(2.0);
  mon.sample_once();  // below threshold -> clear immediately
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].raised);
}

TEST(HealthMonitor, RateWatchFlagsExpiryStorm) {
  MetricsRegistry reg;
  Counter& expired = reg.counter("session.blocks_expired");
  std::vector<HealthMonitor::HealthEvent> events;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.on_event = [&](const HealthMonitor::HealthEvent& e) {
    events.push_back(e);
  };
  HealthMonitor mon{p};
  mon.add_rate_watch({.name = "ttl",
                      .counter = "session.blocks_expired",
                      .max_rate_per_s = 10.0,
                      .periods = 2});

  mon.sample_once();  // prime (dt 0 -> no rate)
  expired.add(100000);
  mon.sample_once();  // enormous rate, over_for = 1
  EXPECT_TRUE(events.empty());
  expired.add(100000);
  mon.sample_once();  // over_for = 2 -> storm
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthMonitor::FlagKind::kStorm);
  EXPECT_EQ(events[0].flag, "health.ttl.storm");

  mon.sample_once();  // no new expiries -> rate 0 -> clear
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].raised);
}

TEST(HealthMonitor, ProgressProbeIgnoresIdleUnits) {
  MetricsRegistry reg;
  std::uint64_t progress = 0;
  std::uint64_t demand = 0;
  std::vector<HealthMonitor::HealthEvent> events;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.stall_periods = 2;
  p.on_event = [&](const HealthMonitor::HealthEvent& e) {
    events.push_back(e);
  };
  HealthMonitor mon{p};
  mon.add_probe({.name = "u",
                 .progress = [&] { return progress; },
                 .demand = [&] { return demand; }});

  // Demand never advances: idle, not stalled, no matter how many samples.
  for (int i = 0; i < 6; ++i) mon.sample_once();
  EXPECT_TRUE(events.empty());

  // Demand advances without progress: stall after 2 qualifying periods.
  demand += 1;
  mon.sample_once();
  demand += 1;
  mon.sample_once();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HealthMonitor::FlagKind::kStalled);
  EXPECT_TRUE(events[0].raised);

  // Progress resumes: the flag clears.
  progress += 1;
  mon.sample_once();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].raised);
}

TEST(HealthMonitor, RemoveProbeClearsItsFlag) {
  MetricsRegistry reg;
  std::uint64_t demand = 0;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.stall_periods = 1;
  HealthMonitor mon{p};
  mon.add_probe({.name = "u",
                 .progress = [] { return std::uint64_t{0}; },
                 .demand = [&] { return demand; }});
  mon.sample_once();
  demand = 1;
  mon.sample_once();  // raised
  auto flag_value = [&] {
    for (const auto& g : reg.snapshot().gauges) {
      if (g.name == "health.u.stalled") return g.value;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(flag_value(), 1.0);
  mon.remove_probe("u");
  EXPECT_DOUBLE_EQ(flag_value(), 0.0);
}

// The acceptance scenario: a deliberately stalled ReaderService session
// (its workers never started, so accepted blocks sit in the queue
// forever) must raise health.session.<id>.stalled within 2 periods.
TEST(HealthMonitor, StalledReaderServiceSessionFlagsWithinTwoPeriods) {
  MetricsRegistry reg;
  ReaderService::Params sp;
  sp.workers = 1;
  sp.metrics = &reg;
  ReaderService svc{sp};  // start() intentionally never called

  const auto id = svc.open_session(SessionConfig{});
  ASSERT_TRUE(id.has_value());

  std::vector<HealthMonitor::HealthEvent> events;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.stall_periods = 2;
  p.on_event = [&](const HealthMonitor::HealthEvent& e) {
    events.push_back(e);
  };
  HealthMonitor mon{p};
  reader::service::watch_session(mon, svc, *id);
  reader::service::watch_service(mon, svc);

  mon.sample_once();  // prime
  // Feed within the in-flight cap: the blocks are accepted (demand
  // advances) but nothing ever processes or resolves them.
  ASSERT_TRUE(svc.submit(*id, std::vector<double>(64, 0.0)));
  mon.sample_once();  // period 1: no progress under demand
  EXPECT_TRUE(events.empty());
  ASSERT_TRUE(svc.submit(*id, std::vector<double>(64, 0.0)));
  mon.sample_once();  // period 2: flag must be up
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].raised);
  EXPECT_EQ(events[0].flag,
            "health.session." + std::to_string(*id) + ".stalled");

  bool gauge_up = false;
  for (const auto& g : reg.snapshot().gauges) {
    if (g.name == events[0].flag) gauge_up = g.value == 1.0;
  }
  EXPECT_TRUE(gauge_up);
}

// A live service processing its feed must NOT trip the stall watchdog.
TEST(HealthMonitor, HealthySessionStaysClear) {
  MetricsRegistry reg;
  ReaderService::Params sp;
  sp.workers = 2;
  sp.metrics = &reg;
  ReaderService svc{sp};
  svc.start();
  const auto id = svc.open_session(SessionConfig{});
  ASSERT_TRUE(id.has_value());

  std::vector<HealthMonitor::HealthEvent> events;
  HealthMonitor::Params p;
  p.registry = &reg;
  p.stall_periods = 2;
  p.on_event = [&](const HealthMonitor::HealthEvent& e) {
    events.push_back(e);
  };
  HealthMonitor mon{p};
  reader::service::watch_session(mon, svc, *id);

  mon.sample_once();
  for (int round = 0; round < 4; ++round) {
    svc.submit(*id, std::vector<double>(256, 0.0));
    // Wait until the block actually lands so progress advances between
    // samples (deterministic, no timing guess).
    for (int spin = 0; spin < 1000; ++spin) {
      const auto st = svc.session_stats(*id);
      if (st.has_value() &&
          st->blocks_processed + st->blocks_dropped >=
              static_cast<std::uint64_t>(round + 1)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    mon.sample_once();
  }
  EXPECT_TRUE(events.empty());
  svc.close_session(*id);
  svc.stop();
}

// ---------------------------------------------------------- prometheus

TEST(Prometheus, TextExpositionMapsAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.counter("svc.blocks").add(7);
  reg.gauge("q.depth").set(3.5);
  LatencyHistogram& h = reg.histogram("lat.ms", 0.0, 10.0, 2);
  h.record(1.0);   // bin 0
  h.record(6.0);   // bin 1
  h.record(-1.0);  // underflow -> folded into the first bucket
  h.record(20.0);  // overflow -> only in +Inf

  std::ostringstream out;
  write_prometheus_text(reg.snapshot(), out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE arachnet_svc_blocks counter"),
            std::string::npos);
  EXPECT_NE(text.find("arachnet_svc_blocks 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE arachnet_q_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("arachnet_q_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE arachnet_lat_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("arachnet_lat_ms_bucket{le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("arachnet_lat_ms_bucket{le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("arachnet_lat_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("arachnet_lat_ms_count 4"), std::string::npos);
  // sum = 1 + 6 - 1 + 20
  EXPECT_NE(text.find("arachnet_lat_ms_sum 26"), std::string::npos);
}

TEST(Prometheus, MonitorExposesItsRegistry) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  HealthMonitor mon{{.registry = &reg}};
  std::ostringstream out;
  mon.write_prometheus(out);
  EXPECT_NE(out.str().find("arachnet_c 1"), std::string::npos);
}
