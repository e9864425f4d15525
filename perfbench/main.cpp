// Reader-stack benchmark: DAQ sample blocks in, CRC-checked packets
// out, through the public API of the default reader configuration.
//
//   perfbench --workload wideband_bank|service_paced|service_saturation
//             --seed N --seconds S --trace 0|1
//             [--blocks N] [--dump DIR] [--trace-out FILE]
//
// The last line of stdout is the result: {"correct", "attempted",
// "failed", "metrics"} with every end-to-end metric (untraced run) or
// every per-layer metric (traced run). See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "layers.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "wideband_bank|service_paced|service_saturation --seed N "
               "--seconds S --trace 0|1 [--blocks N] [--dump DIR] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

void print_metric(const char* kind, const Metric& m, const Report& r) {
  std::printf("%s %s = %.9g %s", kind, m.name.c_str(), m.value,
              m.unit.c_str());
  const auto n = r.samples.find(m.name);
  if (n != r.samples.end()) {
    std::printf(" (n=%llu)", static_cast<unsigned long long>(n->second));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--blocks") {
        opt.blocks = std::stoull(v);
      } else if (a == "--dump") {
        opt.dump_dir = v;
      } else if (a == "--trace-out") {
        opt.trace_path = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  // Measure program defaults only: an override would silently turn a
  // later change of default into no change at all.
  for (const char* var : {"ARACHNET_KERNEL_POLICY", "ARACHNET_SIMD_ISA"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; refusing to measure anything but "
                   "the program defaults\n",
                   var);
      return 3;
    }
  }

  std::printf("== perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("provenance kernel.policy=%s kernel.isa=%s cpu=%s nproc=%u "
              "compiler=\"%s\" build=%s\n",
              arachnet::dsp::to_string(arachnet::dsp::default_kernel_policy()),
              arachnet::dsp::to_string(arachnet::dsp::active_simd_isa()),
              arachnet::dsp::cpu_feature_string().c_str(),
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Report r;
  try {
    if (opt.workload == "wideband_bank") {
      r = run_wideband(opt);
    } else if (opt.workload == "service_paced") {
      r = run_service(opt, /*paced=*/true);
    } else if (opt.workload == "service_saturation") {
      r = run_service(opt, /*paced=*/false);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& note : r.notes) std::printf("note %s\n", note.c_str());
  const std::vector<Metric> result =
      opt.trace ? ordered(kPerLayer, r.per_layer)
                : ordered(kEndToEnd, r.end_to_end);
  for (const auto& m : result) {
    print_metric(opt.trace ? "per_layer" : "end_to_end", m, r);
  }
  print_result(r.correct, r.attempted < 1 ? 1 : r.attempted, r.failed,
               result);
  return 0;
}
