// Per-layer probes for the traced run: each one times calls into a single
// layer's public API (device::ThreadPool, Layer::forward_inference,
// simd::gemm, deploy::ModelStore, net::ResidencyManager, the tuner) or reads
// the counters the program already exports.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Kernel families the breakdown reports; every other leaf layer (pooling,
/// flatten, ...) lands in "other".
inline const char* const kFamilies[] = {"scc_forward", "dw_forward", "relu_fwd",
                                        "gemm", "conv2d"};

struct KernelBreakdown {
  struct Family {
    double ms = 0.0;       // sum of its layers' median forward_inference time
    int64_t calls = 0;     // launches its layers record per run
    double flops = 0.0;    // modeled FLOPs of those launches
  };
  std::map<std::string, Family> families;
  double layer_sum_ms = 0.0;  // every leaf layer, "other" included
  int64_t launches = 0;       // launches per run, all layers
};

/// Times each leaf layer of `model` (descending into nested Sequentials) on
/// its own: `passes` passes over the network, each calling every layer's
/// forward_inference once on that layer's real input, so caches see the
/// order a run() would. A layer's time goes to the family of the launches it
/// records. One span per pass and per layer call goes to `spans`.
KernelBreakdown time_layers(dsx::nn::Sequential& model,
                            const dsx::Tensor& input, int passes,
                            SpanLog* spans);

/// Median `run()` wall time in ms over `reps` calls (after one warm-up).
double median_run_ms(dsx::serve::CompiledModel& plan, const dsx::Tensor& batch,
                     int reps);

/// Kernel launches one `run()` records.
int64_t launches_per_run(dsx::serve::CompiledModel& plan,
                         const dsx::Tensor& batch);

/// Median wall time of an empty run_chunks on the global pool, in us.
double handoff_us(int reps);

/// Achieved simd::gemm GFLOP/s on a 256^3 single-precision product.
double gemm_peak_gflops();

/// Streaming copy bandwidth (bytes read + written per second, GB/s) over
/// 32 MiB buffers.
double copy_gbs();

/// Busy share of the global pool over one or more windows, from
/// ThreadPool::pool_stats() (needs pool accounting on).
class PoolWindow {
 public:
  void open();
  void close();
  /// busy_ns over (threads x wall) summed across the closed windows.
  double busy_frac() const;

 private:
  int64_t t0_ns_ = 0;
  int64_t busy0_ns_ = 0;
  int64_t wall_ns_ = 0;
  int64_t busy_ns_ = 0;
};

/// Quantiles of a registry histogram over one or more windows: the bucket
/// deltas of every series named `name` between each open() and close().
class HistWindow {
 public:
  explicit HistWindow(std::string name);
  void open();
  void close();
  dsx::device::LogHistogram::Snapshot total() const;

 private:
  std::string name_;
  dsx::device::LogHistogram::BucketSnapshot start_;
  dsx::device::LogHistogram::BucketSnapshot sum_;
};

inline int64_t counter_sum(const std::string& name) {
  return dsx::obs::Registry::global().sum_counter(name, {});
}

/// ModelStore save + compile of `spec` in `dir`: median compile ms of 3.
double deploy_compile_ms(const dsx::deploy::ArchSpec& spec,
                         const std::string& dir);

/// Faults three store-backed design points through a ResidencyManager
/// whose budget fits two, one ensure_resident at a time with no traffic.
struct ResidencyCycle {
  int64_t faults = 0;
  int64_t evictions = 0;
  double fault_ms_p50 = 0.0;
  double fault_ms_p99 = 0.0;
};
ResidencyCycle quiet_residency_cycle(uint64_t weight_seed,
                                     const std::string& dir, int rounds);

/// kTune compile of `spec`, then b8 throughput of the tuned plan over the
/// library-default plan (interleaved medians).
struct TuneProbe {
  double compile_ms = 0.0;
  double tuned_over_off = 0.0;
};
TuneProbe tune_probe(const dsx::deploy::ArchSpec& spec,
                     dsx::serve::CompiledModel& off_plan,
                     const dsx::Tensor& batch8, int reps);

}  // namespace perfbench
