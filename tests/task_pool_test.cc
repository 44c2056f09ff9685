// util::TaskPool, the task runner of the window close and the planner's
// estimator build: every task of every round runs exactly once, no two
// running tasks share a slot, rounds larger than the cursor's 16-bit fields
// split correctly, and a pool whose helpers are parked shuts down promptly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "util/task_pool.h"

namespace sonata::util {
namespace {

// Runs `rounds` back-to-back rounds of `count` tasks; checks each task ran
// once and that no slot ran two tasks at a time.
void expect_rounds(TaskPool& pool, std::size_t count, std::size_t rounds) {
  std::vector<std::atomic<std::uint32_t>> runs(count);
  std::vector<std::atomic<bool>> busy(pool.slots());
  std::atomic<std::size_t> shared{0};
  for (std::size_t r = 0; r < rounds; ++r) {
    pool.run(count, [&](std::size_t i, std::size_t slot) {
      ASSERT_LT(i, count);
      ASSERT_LT(slot, pool.slots());
      EXPECT_FALSE(busy[slot].exchange(true)) << "slot " << slot << " ran two tasks at once";
      runs[i].fetch_add(1, std::memory_order_relaxed);
      shared.fetch_add(1, std::memory_order_relaxed);
      busy[slot].store(false);
    });
  }
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(runs[i].load(), rounds) << "task " << i << " of " << count;
  }
  EXPECT_EQ(shared.load(), count * rounds);
}

TEST(TaskPool, EveryTaskRunsOnceAcrossBackToBackRounds) {
  for (const std::size_t helpers : {0u, 1u, 3u}) {
    TaskPool pool(helpers);
    ASSERT_EQ(pool.slots(), helpers + 1);
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 9u, 64u}) {
      SCOPED_TRACE("helpers " + std::to_string(helpers) + " count " + std::to_string(count));
      expect_rounds(pool, count, 2000);
    }
  }
}

TEST(TaskPool, OwnerThreadsHelpThroughTheWakeHook) {
  // The Fleet's shape: the owner's threads poll help() and the hook wakes
  // them; here they poll without waiting, so the hook only counts.
  std::atomic<std::size_t> wakes{0};
  std::atomic<bool> stop{false};
  TaskPool pool(2, [&] { wakes.fetch_add(1); });
  std::vector<std::thread> helpers;
  for (std::size_t slot = 1; slot <= 2; ++slot) {
    helpers.emplace_back([&, slot] {
      while (!stop.load()) {
        if (!pool.help(slot)) std::this_thread::yield();
      }
    });
  }
  expect_rounds(pool, 7, 500);
  stop.store(true);
  for (auto& t : helpers) t.join();
  EXPECT_EQ(wakes.load(), 500u);
}

TEST(TaskPool, RoundsAtAndPastTheCursorLimitRunEveryTask) {
  TaskPool pool(3);
  for (const std::size_t count : {TaskPool::kRoundTasks, TaskPool::kRoundTasks + 1,
                                   2 * TaskPool::kRoundTasks + 5}) {
    SCOPED_TRACE("count " + std::to_string(count));
    expect_rounds(pool, count, 2);
  }
}

TEST(TaskPool, DestroyingParkedHelpersReturnsPromptly) {
  for (int rep = 0; rep < 20; ++rep) {
    auto pool = std::make_unique<TaskPool>(3);
    if (rep % 2 == 0) expect_rounds(*pool, 8, 1);
    // Let the helpers reach their park.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto t0 = std::chrono::steady_clock::now();
    pool.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  }
}

}  // namespace
}  // namespace sonata::util
