#include "util/task_pool.h"

#include <algorithm>
#include <utility>

namespace sonata::util {

TaskPool::TaskPool(std::size_t helpers, std::function<void()> wake)
    : helpers_(helpers), wake_(std::move(wake)) {
  for (std::size_t slot = 1; slot <= helpers_ && !wake_; ++slot) {
    threads_.emplace_back([this, slot] {
      for (;;) {
        const std::uint64_t seen = cursor_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_acquire)) return;
        // Nothing left to claim: park until a publish changes the cursor.
        if (!help(slot)) cursor_.wait(seen, std::memory_order_acquire);
      }
    });
  }
}

TaskPool::~TaskPool() {
  // A new generation with no open task wakes every parked helper to see stop_.
  stop_.store(true, std::memory_order_seq_cst);
  cursor_.fetch_add(1ull << 32, std::memory_order_seq_cst);
  cursor_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::run(std::size_t count, const Task& task) {
  if (helpers_ == 0) {
    for (std::size_t i = 0; i < count; ++i) task(i, 0);
    return;
  }
  task_ = &task;
  for (base_ = 0; base_ < count; base_ += kRoundTasks) {
    const std::uint64_t n = std::min(kRoundTasks, count - base_);
    finished_.store(0, std::memory_order_relaxed);
    const std::uint64_t generation = (cursor_.load(std::memory_order_relaxed) >> 32) + 1;
    cursor_.store(generation << 32 | n << 16, std::memory_order_release);
    wake_ ? wake_() : cursor_.notify_all();
    help(0);
    // Every task is claimed: wait out the ones still running on helpers.
    while (finished_.load(std::memory_order_acquire) != n) std::this_thread::yield();
  }
}

bool TaskPool::help(std::size_t slot) {
  bool ran = false;
  std::uint64_t cur = cursor_.load(std::memory_order_acquire);
  while ((cur & 0xffff) < (cur >> 16 & 0xffff)) {
    if (!cursor_.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      continue;
    }
    (*task_)(base_ + (cur & 0xffff), slot);
    finished_.fetch_add(1, std::memory_order_release);
    ran = true;
    cur = cursor_.load(std::memory_order_acquire);
  }
  return ran;
}

}  // namespace sonata::util
