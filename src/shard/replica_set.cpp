#include "shard/replica_set.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace dsx::shard {

ReplicaSet::ReplicaSet(std::unique_ptr<serve::CompiledModel> prototype,
                       ShardOptions opts)
    : router_(opts.policy) {
  DSX_REQUIRE(prototype != nullptr, "ReplicaSet: null prototype");
  if (opts.replicas < 1) {
    throw std::invalid_argument("ShardOptions: replicas must be >= 1, got " +
                                std::to_string(opts.replicas));
  }
  // Fail fast on the batcher limits too - phase 2 would reject them anyway,
  // but only after the expensive fleet compile.
  serve::validate_batching_limits("ShardOptions", opts.max_batch,
                                  opts.max_delay, opts.queue_capacity);
  // Partition the host's worker budget across lanes. The budget is the
  // CURRENT pool's size so a ReplicaSet constructed inside another lane
  // subdivides that lane, not the whole machine. A lone replica that would
  // get the whole budget runs on that pool itself instead of a copy of it.
  device::ThreadPool& current = device::ThreadPool::current();
  const bool shares_pool = opts.replicas == 1 && opts.lane_threads == 0;
  const unsigned per_lane =
      opts.lane_threads > 0
          ? opts.lane_threads
          : std::max(1u,
                     current.size() / static_cast<unsigned>(opts.replicas));
  // Replica labels and routing counters describe a fleet; a single replica
  // exports under {model} alone.
  const bool fleet = opts.replicas > 1;

  // Phase 1: compile the whole fleet. Replica 0 is the prototype itself;
  // its plan was compiled on the caller's pool (typically wider than the
  // lane) - acceptable, kernel variants differ only mildly across pool
  // widths. Clones compile UNDER their lane's PoolScope with the
  // prototype's tuning mode preserved: the tuning ProblemKey includes the
  // executing pool's width, so a kTune prototype's first clone measures
  // each problem once at lane width and every later clone (same width)
  // hits those cache records - the fleet shares one lane-sized plan and
  // measuring happens at most once per distinct width.
  replicas_.reserve(static_cast<size_t>(opts.replicas));
  for (int r = 0; r < opts.replicas; ++r) {
    Replica rep;
    if (shares_pool) {
      rep.lane = &current;
    } else {
      // Scoped fleets name their lanes ("<model>/lane<r>") so the profiler's
      // resource layer exports per-lane busy/idle utilization; unscoped
      // fleets keep anonymous (unexported) lanes.
      rep.own_lane = std::make_unique<device::ThreadPool>(
          per_lane, opts.metric_model.empty()
                        ? std::string{}
                        : opts.metric_model + "/lane" + std::to_string(r));
      rep.lane = rep.own_lane.get();
    }
    if (r == 0) {
      rep.model = std::move(prototype);
    } else {
      device::PoolScope lane_scope(*rep.lane);
      rep.model = replicas_.front().model->clone_replica(
          replicas_.front().model->options().tuning);
    }
    if (!opts.metric_model.empty()) {
      rep.model->set_metric_scope(opts.metric_model, fleet ? r : -1);
    }
    replicas_.push_back(std::move(rep));
  }
  // Phase 2: start the batchers only after every compile finished, so EVERY
  // per-replica QPS window (BatchCore's clock starts at construction) and
  // the aggregate one below measure serving time, not sibling compile time.
  routed_.resize(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    DeadlineBatcherOptions bopts;
    bopts.max_batch = opts.max_batch;
    bopts.max_delay = opts.max_delay;
    bopts.queue_capacity = opts.queue_capacity;
    bopts.lane = rep.lane;
    bopts.metric_model = opts.metric_model;
    bopts.metric_replica = fleet ? static_cast<int>(r) : -1;
    if (fleet && !opts.metric_model.empty()) {
      routed_[r] = obs::Registry::global().counter(
          "dsx_shard_routed_total",
          {{"model", opts.metric_model}, {"replica", std::to_string(r)}},
          "Requests routed to this replica by the routing policy.");
    }
    rep.batcher = std::make_unique<DeadlineBatcher>(*rep.model, bopts,
                                                    &aggregate_latency_);
  }
  start_ = std::chrono::steady_clock::now();
}

ReplicaSet::~ReplicaSet() { stop(); }

std::future<Tensor> ReplicaSet::submit(const Tensor& image,
                                       SubmitOptions sopts) {
  const int r = router_.pick_with(replicas(), [this](int i) {
    return replicas_[static_cast<size_t>(i)].batcher->outstanding();
  });
  routed_[static_cast<size_t>(r)].inc();
  return replicas_[static_cast<size_t>(r)].batcher->submit(image, sopts);
}

void ReplicaSet::stop() {
  for (Replica& rep : replicas_) rep.batcher->stop();
}

ShardStats ReplicaSet::stats() const {
  ShardStats s;
  s.replicas = static_cast<int>(replicas_.size());
  s.policy = router_.policy();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    ReplicaStats rs;
    rs.replica = static_cast<int>(r);
    rs.lane_threads = replicas_[r].lane->size();
    rs.batcher = replicas_[r].batcher->stats();
    s.requests += rs.batcher.batcher.requests;
    s.shed += rs.batcher.shed;
    s.rejected += rs.batcher.rejected;
    s.per_replica.push_back(std::move(rs));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  s.qps = elapsed > 0.0 ? static_cast<double>(s.requests) / elapsed : 0.0;
  s.latency = aggregate_latency_.snapshot();
  s.latency_buckets = aggregate_latency_.histogram().bucket_snapshot();
  return s;
}

const serve::CompileReport& ReplicaSet::prototype_report() const {
  return replicas_.front().model->report();
}

serve::CompiledModel& ReplicaSet::replica_model(int r) {
  DSX_REQUIRE(r >= 0 && r < replicas(), "replica_model: index " << r
                                            << " outside [0, " << replicas()
                                            << ")");
  return *replicas_[static_cast<size_t>(r)].model;
}

DeadlineBatcher& ReplicaSet::replica_batcher(int r) {
  DSX_REQUIRE(r >= 0 && r < replicas(), "replica_batcher: index " << r
                                            << " outside [0, " << replicas()
                                            << ")");
  return *replicas_[static_cast<size_t>(r)].batcher;
}

}  // namespace dsx::shard
