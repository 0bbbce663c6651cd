// Replicated serving of one logical model (the heart of dsx::shard).
//
// A ReplicaSet serves one compiled plan from R independent CompiledModel
// replicas - the serving-side analogue of the paper's Fig. 14 data-parallel
// scaling (each V100 holds a model replica and consumes a shard of the
// batch). Each replica owns:
//
//   * its own CompiledModel (deep-cloned from the prototype via
//     CompiledModel::clone_replica; tuned kernel plans are shared through
//     the dsx::tune cache, so only the prototype's compile ever measures);
//   * its own DeadlineBatcher (per-replica queue, priorities, deadlines);
//   * its own execution lane - a private device::ThreadPool holding an even
//     partition of the host's worker budget - so replicas genuinely run
//     concurrently instead of taking turns on one pool.
//
// A single replica that would get the whole budget (replicas == 1,
// lane_threads == 0) runs on the current pool itself; that is how
// serve::InferenceServer serves every unsharded model. A single replica
// exports {model} series only (no replica label, no routing counter).
//
// A Router spreads submissions across replicas (round-robin /
// least-outstanding / power-of-two-choices); outputs remain bit-identical
// to per-image eval-mode forward no matter which replica answers.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "device/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/compiled_model.hpp"
#include "shard/deadline_batcher.hpp"
#include "shard/router.hpp"

namespace dsx::shard {

struct ShardOptions {
  /// Number of model replicas (>= 1).
  int replicas = 1;
  RoutingPolicy policy = RoutingPolicy::kLeastOutstanding;
  /// Per-replica batcher knobs (see DeadlineBatcherOptions).
  int64_t max_batch = 0;
  std::chrono::microseconds max_delay{2000};
  int64_t queue_capacity = 0;
  /// Threads per execution lane; 0 = an even partition of the current
  /// pool's thread budget (max(1, threads / replicas)), and for a single
  /// replica the current pool itself. On small hosts this degenerates to
  /// single-thread lanes, which also skip all intra-op hand-off overhead -
  /// more inter-request parallelism instead.
  unsigned lane_threads = 0;
  /// Observability scope: non-empty registers per-replica dsx_serve_*
  /// series (labels {model,replica}) and dsx_shard_routed_total routing
  /// counters in obs::Registry; a single replica registers {model} series
  /// only. Empty = no export. InferenceServer sets this to the registered
  /// model name.
  std::string metric_model;
};

/// One replica's observability snapshot.
struct ReplicaStats {
  int replica = 0;
  unsigned lane_threads = 0;
  DeadlineBatcherStats batcher;
};

/// Shard-wide aggregate + per-replica breakdown.
struct ShardStats {
  int replicas = 0;
  RoutingPolicy policy = RoutingPolicy::kLeastOutstanding;
  int64_t requests = 0;  // answered across all replicas
  double qps = 0.0;      // aggregate answered / seconds since construction
  int64_t shed = 0;
  int64_t rejected = 0;
  /// Submit->answer latency aggregated across replicas (one shared
  /// histogram, not a merge of per-replica snapshots).
  device::LatencyStats::Snapshot latency;
  /// The same shared histogram's raw cumulative buckets (nanosecond
  /// samples) - the windowing primitive SLO/guardrail evaluation diffs.
  device::LogHistogram::BucketSnapshot latency_buckets;
  std::vector<ReplicaStats> per_replica;
};

class ReplicaSet {
 public:
  /// Takes ownership of the prototype (replica 0) and compiles
  /// opts.replicas - 1 clones of it. Throws std::invalid_argument on
  /// invalid options. Compilation happens here, before any traffic.
  ReplicaSet(std::unique_ptr<serve::CompiledModel> prototype,
             ShardOptions opts = {});
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  int replicas() const { return static_cast<int>(replicas_.size()); }

  /// Routes one request to a replica chosen by the routing policy.
  /// Thread-safe. Admission control is per replica: a bounded replica
  /// queue at capacity throws serve::QueueFull to the caller (the routing
  /// policies steer load away from full replicas long before that).
  std::future<Tensor> submit(const Tensor& image, SubmitOptions sopts = {});

  /// Blocking convenience wrapper.
  Tensor infer(const Tensor& image, SubmitOptions sopts = {}) {
    return submit(image, sopts).get();
  }

  /// Drains and stops every replica batcher. Idempotent.
  void stop();

  ShardStats stats() const;

  /// The prototype's compile report (replicas share its plan).
  const serve::CompileReport& prototype_report() const;

  /// Direct replica access for tests and benches (bit-identity checks,
  /// targeted routing). `r` in [0, replicas()).
  serve::CompiledModel& replica_model(int r);
  DeadlineBatcher& replica_batcher(int r);

 private:
  struct Replica {
    std::unique_ptr<serve::CompiledModel> model;
    std::unique_ptr<device::ThreadPool> own_lane;  // null when sharing a pool
    device::ThreadPool* lane = nullptr;
    std::unique_ptr<DeadlineBatcher> batcher;  // declared last: stops first
  };

  // aggregate_latency_ precedes replicas_ so it outlives the batchers that
  // hold a pointer to it.
  device::LatencyStats aggregate_latency_;
  std::vector<Replica> replicas_;
  /// dsx_shard_routed_total{model,replica}, one per replica (detached when
  /// the fleet has no metric scope).
  std::vector<obs::Counter> routed_;
  Router router_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dsx::shard
