#include "device/parallel_for.hpp"

#include "common/check.hpp"

namespace dsx::device {

void parallel_for(int64_t total, const std::function<void(int64_t)>& body,
                  int64_t grain) {
  DSX_REQUIRE(total >= 0, "parallel_for: negative range");
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
