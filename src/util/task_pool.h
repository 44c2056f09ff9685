// A task runner for rounds of independent tasks: the window close's
// (DESIGN.md "Parallel window close") and the planner's estimator build
// (DESIGN.md "Planner"). A round runs tasks 0..count-1, each once, on the
// caller of run() (slot 0) and on every helper that calls help(slot)
// meanwhile. Claiming a task is one CAS on a packed cursor (generation << 32
// | round size << 16 | next task), so a helper holding an older round's
// value can never claim a newer round's task.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace sonata::util {

// Runs tasks 0..count-1, each exactly once, and returns when all have
// finished. `task(i, slot)` may run on any of `slots` threads at once, each
// passing its own slot < slots. Callers without threads run them inline.
using Task = std::function<void(std::size_t task, std::size_t slot)>;
using TaskRunner = std::function<void(std::size_t count, const Task& task)>;

class TaskPool {
 public:
  // Tasks one round holds (the cursor's 16-bit fields); run() splits a
  // larger count into consecutive rounds.
  static constexpr std::size_t kRoundTasks = 0xffff;

  // `helpers` threads besides the caller run tasks, as slots 1..helpers.
  // Without `wake` the pool starts them, parked on the cursor between
  // rounds (std::atomic::wait) so they take no CPU from threads computing
  // on the same cores; with it they are the owner's, and `wake` after each
  // publish must get them to call help(slot).
  explicit TaskPool(std::size_t helpers, std::function<void()> wake = {});
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return helpers_ + 1; }

  // Runs tasks 0..count-1 as slot 0 alongside the helpers (inline without
  // any); returns when all have finished. One caller at a time.
  void run(std::size_t count, const Task& task);

  // Runs the open round's unclaimed tasks as `slot`; true if any ran.
  bool help(std::size_t slot);

 private:
  std::size_t helpers_;
  std::function<void()> wake_;
  alignas(64) std::atomic<std::uint64_t> cursor_{0};  // read on every helper pass
  std::atomic<std::size_t> finished_{0};              // this round's tasks done
  const Task* task_ = nullptr;                        // published by cursor_
  std::size_t base_ = 0;  // the round's first task, published by cursor_
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: the threads use every member above
};

}  // namespace sonata::util
