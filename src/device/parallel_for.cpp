#include "device/parallel_for.hpp"

#include "common/check.hpp"

namespace dsx::device {

namespace {
// Tuned-grain override for the current thread; 0 = none. Thread-local so a
// tuning scope on the serving thread cannot leak into concurrent callers.
thread_local int64_t t_grain_override = 0;
}  // namespace

int64_t effective_grain(int64_t requested) {
  return (t_grain_override > 0 && requested == kDefaultGrain)
             ? t_grain_override
             : requested;
}

int64_t grain_override() { return t_grain_override; }

GrainOverride::GrainOverride(int64_t grain) : saved_(t_grain_override) {
  if (grain > 0) t_grain_override = grain;
}

GrainOverride::~GrainOverride() { t_grain_override = saved_; }

void parallel_for(int64_t total, const std::function<void(int64_t)>& body,
                  int64_t grain) {
  DSX_REQUIRE(total >= 0, "parallel_for: negative range");
  grain = effective_grain(grain);
  if (total == 0) return;
  if (total < grain) {
    for (int64_t i = 0; i < total; ++i) body(i);
    return;
  }
  ThreadPool::current().run_chunks(total, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) body(i);
  });
}

void parallel_for_chunks(int64_t total,
                         const std::function<void(int64_t, int64_t)>& body,
                         int64_t grain) {
  DSX_REQUIRE(total >= 0, "parallel_for_chunks: negative range");
  grain = effective_grain(grain);
  if (total == 0) return;
  if (total < grain) {
    body(0, total);
    return;
  }
  ThreadPool::current().run_chunks(total, body);
}

void parallel_for_2d(int64_t rows, int64_t cols,
                     const std::function<void(int64_t, int64_t)>& body,
                     int64_t grain) {
  DSX_REQUIRE(rows >= 0 && cols >= 0, "parallel_for_2d: negative range");
  const int64_t total = rows * cols;
  if (total == 0) return;
  parallel_for_chunks(
      total,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) body(i / cols, i % cols);
      },
      grain);
}

}  // namespace dsx::device
