#include "serve/batcher.hpp"

#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace dsx::serve {

void validate_batcher_options(const BatcherOptions& opts) {
  validate_batching_limits("BatcherOptions", opts.max_batch, opts.max_delay,
                           opts.queue_capacity);
  if (opts.replicas < 1) {
    throw std::invalid_argument("BatcherOptions: replicas must be >= 1, got " +
                                std::to_string(opts.replicas));
  }
}

namespace {

shard::DeadlineBatcherOptions to_deadline_options(const BatcherOptions& opts) {
  validate_batcher_options(opts);
  // replicas only takes effect through InferenceServer::register_model
  // (which builds a ReplicaSet). Silently serving unsharded here would be a
  // mysterious-flat-throughput misconfiguration, so reject it loudly.
  DSX_REQUIRE(opts.replicas == 1,
              "DynamicBatcher: replicas = "
                  << opts.replicas
                  << " has no effect on a directly constructed batcher; "
                     "register the model with InferenceServer to shard");
  shard::DeadlineBatcherOptions dopts;
  dopts.max_batch = opts.max_batch;
  dopts.max_delay = opts.max_delay;
  dopts.queue_capacity = opts.queue_capacity;
  dopts.metric_model = opts.metric_model;
  // lane stays null: the current pool. With no per-request deadlines or
  // priorities the EDF order reduces to the seq tie-break, i.e. plain FIFO.
  return dopts;
}

}  // namespace

DynamicBatcher::DynamicBatcher(CompiledModel& model, BatcherOptions opts)
    : impl_(model, to_deadline_options(opts)) {}

}  // namespace dsx::serve
