// Dynamic micro-batching in front of a CompiledModel.
//
// Many client threads submit single images; one worker thread coalesces them
// into micro-batches (bounded by max_batch and by how long the oldest request
// has waited) and executes them on the compiled plan. Batching amortizes
// per-call costs (kernel launches, pool wake-ups, GEMM setup) across
// requests, which is where the >= 2x serving-throughput win over batch-1
// execution comes from (bench/serve_throughput).
//
// Every successfully submitted request is answered exactly once: stop() (and
// the destructor) drain the queue before joining the worker, and a request
// whose batch throws receives the exception through its future.
//
// DynamicBatcher is the FIFO face of the batching engine: it delegates to
// shard::DeadlineBatcher configured with no deadlines and no priorities -
// which degenerates to exactly FIFO coalescing on the pool current at
// construction (normally the global pool). One implementation, two
// surfaces; the scheduling-aware surface lives in
// shard/deadline_batcher.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>

#include "serve/compiled_model.hpp"
#include "serve/request.hpp"
#include "shard/deadline_batcher.hpp"

namespace dsx::serve {

struct BatcherOptions {
  /// Largest micro-batch; 0 means the model's compiled max_batch. Clamped to
  /// the model's max_batch either way.
  int64_t max_batch = 0;
  /// How long the worker may hold the oldest queued request while waiting
  /// for the batch to fill.
  std::chrono::microseconds max_delay{2000};
  /// Bounded-queue admission control: submit() throws QueueFull once this
  /// many requests are waiting. 0 = unbounded (the legacy behavior).
  int64_t queue_capacity = 0;
  /// Model replica count. InferenceServer::register_model serves the model
  /// through a dsx::shard::ReplicaSet of that many independently compiled
  /// replicas; 1 is a single batcher on the current pool, > 1 gives each
  /// replica its own batcher and execution lane.
  int replicas = 1;
  /// Observability scope: non-empty registers dsx_serve_* series labeled
  /// {model=metric_model} in obs::Registry (see ROADMAP "Observability
  /// quickstart"). Empty = no export. InferenceServer overwrites this with
  /// the registered model name.
  std::string metric_model;
};

/// Throws std::invalid_argument on out-of-range fields (negative max_delay,
/// max_batch, queue_capacity, or replicas < 1). Shared by every consumer of
/// BatcherOptions (DynamicBatcher, InferenceServer).
void validate_batcher_options(const BatcherOptions& opts);

class DynamicBatcher {
 public:
  /// `model` must outlive the batcher. Batchers on the same pool take turns
  /// launch by launch (ThreadPool::run_chunks serializes its callers; the
  /// pool stands in for a single GPU). Throws std::invalid_argument on
  /// invalid `opts`.
  DynamicBatcher(CompiledModel& model, BatcherOptions opts = {});

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Enqueues one image ([C,H,W] or [1,C,H,W]) and returns a future for its
  /// [1, ...] output. Thread-safe. Throws if the batcher is stopped, or
  /// QueueFull when a bounded queue is at capacity.
  std::future<Tensor> submit(const Tensor& image) { return impl_.submit(image); }

  /// Priority/deadline-aware submission (the ROADMAP's
  /// "priorities/deadlines in DynamicBatcher"): forwarded to the underlying
  /// engine, so single-replica models get EDF ordering and deadline
  /// shedding too. Shed/rejected counters are visible via deadline_stats().
  std::future<Tensor> submit(const Tensor& image,
                             shard::SubmitOptions sopts) {
    return impl_.submit(image, sopts);
  }

  /// Blocking convenience wrapper around submit().
  Tensor infer(const Tensor& image) { return submit(image).get(); }

  /// Stops accepting work, drains the queue, joins the worker. Idempotent.
  void stop() { impl_.stop(); }

  BatcherStats stats() const { return impl_.stats().batcher; }

  /// Full engine counters (shed, rejected, queue depth) for callers using
  /// the deadline-aware submit on a single batcher.
  shard::DeadlineBatcherStats deadline_stats() const { return impl_.stats(); }

 private:
  shard::DeadlineBatcher impl_;
};

}  // namespace dsx::serve
