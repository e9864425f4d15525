// Metric catalogue: every metric a run can print, with its unit, in the
// order the result line lists them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every untraced run prints all of them and puts them
/// in its result line; run.py keeps the ones BENCHMARK.json lists.
inline const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_msps", "MS/s"},
    {"packet_latency_p50_ms", "ms"},
    {"packet_latency_p99_ms", "ms"},
    {"packet_loss_ratio", "ratio"},
    {"packet_delivery_ratio", "ratio"},
    {"false_packet_ratio", "ratio"},
    {"block_drop_ratio", "ratio"},
    {"cpu_ms_per_msample", "ms/MS"},
    {"rss_mib", "MiB"},
};

/// Per-layer metrics of the traced run, likewise all in its result line.
/// A layer that is not on a workload's path reads 0 there (e.g. the channelizer on the service
/// workloads, the service dispatcher on wideband_bank).
inline const std::vector<MetricDef> kPerLayer = {
    {"dsp.ddc.ns_per_sample", "ns/sample"},
    {"dsp.channelizer.ns_per_sample", "ns/sample"},
    {"dsp.channelizer.frames", "count"},
    {"reader.bank.decode_ns_per_sample", "ns/sample"},
    {"reader.bank.process_ns_per_sample", "ns/sample"},
    {"reader.bank.workers_gain_x", "x"},
    {"reader.bank.drain_ns_per_packet", "ns/packet"},
    {"reader.chain.ns_per_sample", "ns/sample"},
    {"reader.crc_pass_ratio", "ratio"},
    {"reader.frames_ok", "count"},
    {"reader.crc_failures", "count"},
    {"realtime.submit_ms.p50", "ms"},
    {"realtime.submit_ms.p99", "ms"},
    {"realtime.stall_s", "s"},
    {"realtime.input_depth.mean", "blocks"},
    {"realtime.output_depth.max", "packets"},
    {"realtime.host_ns_per_sample", "ns/sample"},
    {"service.submit_us.p50", "us"},
    {"service.submit_us.p99", "us"},
    {"service.poll_us.p50", "us"},
    {"service.wait_ms.p50", "ms"},
    {"service.wait_ms.p99", "ms"},
    {"service.dispatch_depth.mean", "blocks"},
    {"service.dispatch_depth.max", "blocks"},
    {"service.blocks_dropped", "count"},
    {"service.blocks_expired", "count"},
    {"service.packets_dropped", "count"},
    {"service.host_cpu_ns_per_sample", "ns/sample"},
    {"telemetry.snapshot_us.p50", "us"},
    {"gen.lag_ms.p99", "ms"},
    {"gen.cpu_share", "ratio"},
    {"gen.render_s", "s"},
    {"trace.overhead_pct", "%"},
    {"budget.coverage", "ratio"},
};

/// Orders `values` by `defs`, filling absent metrics with 0.
inline std::vector<Metric> ordered(
    const std::vector<MetricDef>& defs,
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    out.push_back(Metric{d.name, it == values.end() ? 0.0 : it->second,
                         d.unit});
  }
  return out;
}

}  // namespace perfbench
