// perfbench: the serving-stack benchmark.
//
//   perfbench --workload <diurnal_lockstep|fleet_scale_cold|open_serving>
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Drives the real api::QonductorClient through its public functions,
// checks the outputs, and prints every metric by name with its unit. The
// last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced run with --trace 1. Exit code 1
// when an output check fails, 2 on a usage error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <diurnal_lockstep|fleet_scale_cold|open_serving> "
               "[--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  return 2;
}

/// The machine block: nproc plus compiler and build type, as the
/// program's qon_build_info gauge labels them.
void print_machine() {
  std::printf("machine: nproc=%u %s\n", std::thread::hardware_concurrency(),
              qon::obs::build_info_labels().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0.0 || options.seconds > 120.0) return usage("--seconds must be in (0, 120]");
  const bool lockstep = perfbench::is_lockstep_workload(options.workload);
  if (!lockstep && options.workload != "open_serving") return usage("unknown workload");

  std::printf("perfbench: workload=%s seed=%" PRIu64 "%s seconds=%g trace=%d\n",
              options.workload.c_str(), options.seed,
              options.seed == perfbench::kHeldOutSeed ? " (held out)" : "", options.seconds,
              options.trace ? 1 : 0);
  print_machine();

  const perfbench::WorkloadResult result =
      lockstep ? perfbench::run_lockstep(options) : perfbench::run_open_serving(options);

  if (options.trace) {
    std::printf("per-layer table (traced run)\n");
    perfbench::print_result(perfbench::per_layer_metrics(result.layers), result.correct,
                            result.attempted, result.failed);
  } else {
    perfbench::print_result(perfbench::end_to_end_metrics(result.e2e), result.correct,
                            result.attempted, result.failed);
  }
  return result.correct ? 0 : 1;
}
