// The benchmark's workloads. Each builds its inputs from the workload seed,
// sets the program up several times (set-up time is a metric of its own),
// measures for the configured seconds, checks every output it gets back,
// and fills a Report with either the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
#pragma once

#include "bench.hpp"

namespace perfbench {

Report run_serve_wire(const RunConfig& cfg);
Report run_churn_wire(const RunConfig& cfg);
Report run_plan_large(const RunConfig& cfg);

}  // namespace perfbench
