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
// declared cost alone.
#pragma once

#include <cstdint>
#include <functional>

#include "device/thread_pool.hpp"

namespace dsx::device {

/// Minimum iterations per worker before a loop is worth parallelising.
inline constexpr int64_t kDefaultGrain = 1024;

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
