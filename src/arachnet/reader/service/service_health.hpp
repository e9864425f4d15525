#pragma once

#include <string>

#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/telemetry/monitor.hpp"

namespace arachnet::reader::service {

/// Canonical HealthMonitor wiring for a ReaderService — the glue between
/// the generic watchdog primitives and this service's semantics, so every
/// embedder (arachnet_top, the soak bench, tests) flags the same
/// conditions the same way.
///
/// The service must outlive the monitor (or the probes must be removed
/// first): the probes capture `svc` by reference.

/// Watches one session for stalls: progress = blocks processed + dropped
/// (a drop is a resolution, not a stall), demand = blocks submitted (an
/// idle producer is not a stall), active while the session exists and is
/// not closed. Raises `health.session.<id>.stalled` after
/// `Params::stall_periods` qualifying samples.
inline void watch_session(telemetry::HealthMonitor& monitor,
                          const ReaderService& svc, SessionId id) {
  telemetry::HealthMonitor::ProgressProbe probe;
  probe.name = "session." + std::to_string(id);
  probe.progress = [&svc, id]() -> std::uint64_t {
    const auto st = svc.session_stats(id);
    return st ? st->blocks_processed + st->blocks_dropped : 0;
  };
  probe.demand = [&svc, id]() -> std::uint64_t {
    const auto st = svc.session_stats(id);
    return st ? st->blocks_submitted : 0;
  };
  probe.active = [&svc, id]() -> bool {
    const auto st = svc.session_stats(id);
    return st.has_value() && !st->closed;
  };
  monitor.add_probe(std::move(probe));
}

inline void unwatch_session(telemetry::HealthMonitor& monitor, SessionId id) {
  monitor.remove_probe("session." + std::to_string(id));
}

/// Service-wide watchdogs:
///  - `health.service.dispatch.saturated`: the dispatch queue held >= 90%
///    of capacity for 3 consecutive samples (sustained displacement
///    pressure, not a momentary burst);
///  - `health.service.ttl.storm`: TTL expiries exceeded
///    `max_expiry_rate_per_s` for 2 consecutive samples (blocks are aging
///    out faster than the workers drain them).
inline void watch_service(telemetry::HealthMonitor& monitor,
                          const ReaderService& svc,
                          double max_expiry_rate_per_s = 10.0) {
  telemetry::HealthMonitor::SaturationWatch sat;
  sat.name = "service.dispatch";
  sat.depth_gauge = "service.dispatch_depth";
  sat.capacity = static_cast<double>(svc.stats().dispatch_capacity);
  sat.threshold = 0.9;
  sat.periods = 3;
  monitor.add_saturation_watch(std::move(sat));

  telemetry::HealthMonitor::RateWatch storm;
  storm.name = "service.ttl";
  storm.counter = "session.blocks_expired";
  storm.max_rate_per_s = max_expiry_rate_per_s;
  storm.periods = 2;
  monitor.add_rate_watch(std::move(storm));
}

}  // namespace arachnet::reader::service
