#include "device/launch.hpp"

#include <algorithm>
#include <mutex>

#include "common/check.hpp"
#include "device/atomic_stats.hpp"
#include "device/thread_pool.hpp"

namespace dsx::device {

KernelLog& KernelLog::instance() {
  static KernelLog log;
  return log;
}

void KernelLog::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void KernelLog::append(KernelRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled()) records_.push_back(std::move(record));
}

std::vector<KernelRecord> KernelLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void KernelLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

KernelProfileScope::KernelProfileScope() {
  auto& log = KernelLog::instance();
  was_enabled_ = log.enabled();
  log.clear();
  log.set_enabled(true);
}

KernelProfileScope::~KernelProfileScope() {
  KernelLog::instance().set_enabled(was_enabled_);
}

std::vector<KernelRecord> KernelProfileScope::records() const {
  return KernelLog::instance().snapshot();
}

namespace {

void record_launch(const char* name, int64_t threads, const KernelCosts& costs,
                   int64_t atomics_before) {
  if (!KernelLog::instance().enabled()) return;
  KernelRecord rec;
  rec.name = name;
  rec.threads = threads;
  rec.flops_per_thread = costs.flops_per_thread;
  rec.bytes_per_thread = costs.bytes_per_thread;
  rec.atomic_adds = AtomicCounters::instance().adds() - atomics_before;
  KernelLog::instance().append(std::move(rec));
}

/// Runs body over [0, exec_range) inline or across ThreadPool::current(),
/// by declared work (see kInlineWork).
void schedule(int64_t exec_range, int64_t model_threads,
              const KernelCosts& costs,
              const std::function<void(int64_t, int64_t)>& body) {
  DSX_REQUIRE(exec_range >= 0, "launch: negative range");
  if (exec_range == 0) return;
  const double work =
      static_cast<double>(model_threads) *
      std::max(costs.flops_per_thread, costs.bytes_per_thread / 4.0);
  ThreadPool& pool = ThreadPool::current();
  if (exec_range > 1 && work >= kInlineWork) {
    pool.run_chunks(exec_range, body);
  } else {
    pool.run_inline(exec_range, body);
  }
}

}  // namespace

void launch_kernel(const char* name, int64_t threads, const KernelCosts& costs,
                   const std::function<void(int64_t)>& body) {
  const int64_t atomics_before = AtomicCounters::instance().adds();
  schedule(threads, threads, costs, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) body(i);
  });
  record_launch(name, threads, costs, atomics_before);
}

void launch_kernel_chunks(const char* name, int64_t threads,
                          const KernelCosts& costs,
                          const std::function<void(int64_t, int64_t)>& body) {
  const int64_t atomics_before = AtomicCounters::instance().adds();
  schedule(threads, threads, costs, body);
  record_launch(name, threads, costs, atomics_before);
}

void launch_kernel_chunks_modeled(
    const char* name, int64_t exec_range, int64_t model_threads,
    const KernelCosts& costs,
    const std::function<void(int64_t, int64_t)>& body) {
  const int64_t atomics_before = AtomicCounters::instance().adds();
  schedule(exec_range, model_threads, costs, body);
  record_launch(name, model_threads, costs, atomics_before);
}

}  // namespace dsx::device
