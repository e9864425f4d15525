// The three workloads and what each run reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed-work mode for the benchmark's own tests: submit exactly this
  /// many measured blocks per stream instead of running for `seconds`.
  std::size_t blocks = 0;
  /// When set, the ledger and the delivered packet set are written here.
  std::string dump_dir;
  /// Where the traced run writes its span file.
  std::string trace_path;
};

struct Report {
  bool correct = true;
  /// Blocks offered to the host in the measured window, and how many of
  /// them it refused or dropped.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) by name; see layers.hpp.
  std::map<std::string, double> end_to_end;
  /// Per-layer metrics (traced run) by name; see layers.hpp.
  std::map<std::string, double> per_layer;
  /// Sample counts behind percentile metrics, by metric name.
  std::map<std::string, std::uint64_t> samples;
  /// Human-readable lines printed before the result (sample counts,
  /// mirror checks, the reason a run is not correct).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("INCORRECT: " + why);
  }
};

Report run_wideband(const Options& opt);
Report run_service(const Options& opt, bool paced);

}  // namespace perfbench
