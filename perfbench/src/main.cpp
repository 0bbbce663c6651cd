// dsx_perfbench: one workload per invocation.
//
//   dsx_perfbench --workload <serve_wire|plan_large|churn_wire> --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE] [--scratch DIR]
//
// Prints one readable line per phase and metric, then, as the last line of
// stdout, the JSON result: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit code 0 only when the run completed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dsx_perfbench --workload <serve_wire|plan_large|"
               "churn_wire> --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--scratch DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.scratch = "perfbench-scratch";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--trace-out") {
      cfg.trace_out = val;
    } else if (key == "--scratch") {
      cfg.scratch = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0.0) return usage();
  try {
    std::filesystem::create_directories(cfg.scratch);
    perfbench::Report report;
    if (cfg.workload == "serve_wire") {
      report = perfbench::run_serve_wire(cfg);
    } else if (cfg.workload == "plan_large") {
      report = perfbench::run_plan_large(cfg);
    } else if (cfg.workload == "churn_wire") {
      report = perfbench::run_churn_wire(cfg);
    } else {
      return usage();
    }
    std::filesystem::remove_all(cfg.scratch);
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsx_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
