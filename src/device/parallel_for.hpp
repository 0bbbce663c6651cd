// Structured parallel loops over index ranges.
//
// parallel_for(n, f) runs f(i) for i in [0, n) on ThreadPool::current() -
// the lane pool bound by a device::PoolScope when one is active (dsx::shard
// replica lanes), else the process-global pool. Chunking never changes
// results: every output index is computed by exactly one thread, so pool
// size only affects scheduling, not floating-point evaluation order.
// parallel_for_2d flattens a rectangular space. `grain` lets callers keep
// tiny loops serial (thread hand-off on a 2-core host costs more than the
// work it would save).
//
// Kernel launches (device/launch.hpp) do not use the grain: they decide by
// declared cost. dsx::tune measures the schedule instead of trusting either
// heuristic: a GrainOverride scope substitutes a tuned grain for
// kDefaultGrain at every loop it dynamically encloses (call sites that pass
// an explicit non-default grain keep their choice) and for the cost rule at
// every launch. With no scope active the heuristics apply unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "device/thread_pool.hpp"

namespace dsx::device {

/// Minimum iterations per worker before a loop is worth parallelising.
inline constexpr int64_t kDefaultGrain = 1024;

/// Grain value that keeps any loop serial (total < grain always holds).
inline constexpr int64_t kSerialGrain = std::numeric_limits<int64_t>::max();

/// Grain a loop will actually use: `requested`, unless the caller asked for
/// the library default while a GrainOverride scope is active on this thread.
int64_t effective_grain(int64_t requested);

/// Grain installed by the innermost GrainOverride on this thread; 0 when
/// none is active.
int64_t grain_override();

/// RAII override of kDefaultGrain for the enclosed loops on this thread.
/// `grain <= 0` installs nothing (tuning records use 0 for "library
/// default"). Scopes nest; each restores the previous override.
class GrainOverride {
 public:
  explicit GrainOverride(int64_t grain);
  ~GrainOverride();
  GrainOverride(const GrainOverride&) = delete;
  GrainOverride& operator=(const GrainOverride&) = delete;

 private:
  int64_t saved_;
};

/// Runs body(i) for every i in [0, total). Parallel when total >= grain.
void parallel_for(int64_t total, const std::function<void(int64_t)>& body,
                  int64_t grain = kDefaultGrain);

/// Runs body(begin, end) over chunked subranges of [0, total); this is the
/// cheaper form when the body can keep per-chunk state (accumulators,
/// scratch buffers).
void parallel_for_chunks(int64_t total,
                         const std::function<void(int64_t, int64_t)>& body,
                         int64_t grain = kDefaultGrain);

/// Runs body(i, j) over [0, rows) x [0, cols), parallel over the flattened
/// space.
void parallel_for_2d(int64_t rows, int64_t cols,
                     const std::function<void(int64_t, int64_t)>& body,
                     int64_t grain = kDefaultGrain);

}  // namespace dsx::device
