// Bounded single-producer / single-consumer ring buffer.
//
// The fleet's ingest path: the driver thread (sole producer) routes each
// packet to its ingress switch's queue; one consumer at a time drains it.
// The consumer side may pass between threads (the Fleet hands it over with
// its shard's claim, runtime/fleet.h), as long as each hand-over is a
// release by the old consumer that the new one acquires. Lock-free — one
// release store per side; the producer's store publishes the slot, the
// consumer's acquire load pairs with it, so popped values are fully
// visible without locks (and clean under ThreadSanitizer).
//
// The batch operations are the backbone of the batched data path: a whole
// span of elements is moved through the ring with ONE acquire/release pair
// per side, amortizing the cache-line ping-pong on head_/tail_ over the
// batch (~256 packets) instead of paying it per packet.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace sonata::runtime {

// Bounded-spin exponential backoff for the fleet's busy-wait loops.
//
// A raw `while (!try) yield()` spin is the batch=1 anti-scaling culprit:
// with more workers than cores, a spinning producer burns the exact
// timeslice the consumer needs to drain, so adding threads makes the ring
// SLOWER. Backoff keeps the first probes cheap (pause), escalates to
// yield, then parks in exponentially growing sleeps (1us .. 256us) so a
// stalled peer gets whole timeslices back. Counters are local; the owner
// flushes them to obs at a quiet point (window close), keeping the hot
// loop free of shared-cache traffic.
class Backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      return;
    }
    if (spins_ < kSpinLimit + kYieldLimit) {
      ++spins_;
      ++yields_;
      std::this_thread::yield();
      return;
    }
    ++sleeps_;
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    if (sleep_us_ < kMaxSleepUs) sleep_us_ <<= 1;
  }

  // Progress was made: restart the cheap-spin phase.
  void reset() noexcept {
    spins_ = 0;
    sleep_us_ = 1;
  }

  // True once this episode has escalated to its longest sleep — a caller
  // with a condition variable should park instead of sleeping again.
  [[nodiscard]] bool exhausted() const noexcept { return sleep_us_ >= kMaxSleepUs; }

  // Cumulative escalations since construction (not cleared by reset()):
  // how often the loop had to give up its timeslice, and how often it had
  // to sleep. The fleet publishes these as
  // sonata_fleet_backoffs_total / sonata_fleet_sleeps_total.
  [[nodiscard]] std::uint64_t yields() const noexcept { return yields_; }
  [[nodiscard]] std::uint64_t sleeps() const noexcept { return sleeps_; }

 private:
  static constexpr std::uint32_t kSpinLimit = 64;
  static constexpr std::uint32_t kYieldLimit = 16;
  static constexpr std::uint32_t kMaxSleepUs = 256;
  std::uint32_t spins_ = 0;
  std::uint32_t sleep_us_ = 1;
  std::uint64_t yields_ = 0;
  std::uint64_t sleeps_ = 0;
};

template <typename T>
class SpscQueue {
 public:
  // `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side, deferred: write `v` into the next ring slot WITHOUT
  // publishing it. Staged slots become visible to the consumer only at the
  // next publish() — the ring itself is the batch buffer, so a batched
  // producer pays one release store (and zero extra copies) per run.
  // Returns false when the ring is full of published + staged elements;
  // the producer must then publish() and let the consumer drain.
  bool try_stage(const T& v) {
    if (staged_head_ - cached_tail_ == slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (staged_head_ - cached_tail_ == slots_.size()) return false;
    }
    slots_[staged_head_ & (slots_.size() - 1)] = v;
    ++staged_head_;
    return true;
  }

  // Publish every staged element with a single release store. Returns true
  // when the consumer could have observed an empty ring immediately before
  // (i.e. it may be asleep and need a wakeup).
  bool publish() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const bool was_empty = tail_.load(std::memory_order_acquire) == head;
    if (staged_head_ != head) head_.store(staged_head_, std::memory_order_release);
    return was_empty;
  }

  // Consumer side, zero-copy: a view of up to `max` available elements,
  // clipped to the contiguous run before the ring wraps (a wrapped batch
  // simply surfaces as two runs). The consumer processes elements in place
  // — no move out of the ring — then retire()s them; the producer cannot
  // reuse the slots until then, so the view stays valid.
  [[nodiscard]] std::span<const T> front_run(std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t avail = head_.load(std::memory_order_acquire) - tail;
    std::size_t n = avail < max ? avail : max;
    const std::size_t pos = tail & (slots_.size() - 1);
    const std::size_t contiguous = slots_.size() - pos;
    if (n > contiguous) n = contiguous;
    // Start the fetch of the run the consumer will ask for next (the slots
    // right after this view, wrapped) while it chews on this one.
    if (n != 0 && n == contiguous) __builtin_prefetch(slots_.data());
    if (n != 0 && n < avail) __builtin_prefetch(slots_.data() + ((tail + n) & (slots_.size() - 1)));
    return {slots_.data() + pos, n};
  }

  // Retire `n` elements previously viewed via front_run with a single
  // release store, returning their slots to the producer.
  void retire(std::size_t n) {
    tail_.store(tail_.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

 private:
  std::vector<T> slots_;
  // Producer-private staging cursor (slots written, not yet published) and
  // a cached view of tail_ so a staged write usually costs zero atomics.
  std::size_t staged_head_ = 0;
  std::size_t cached_tail_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer-written
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer-written
};

}  // namespace sonata::runtime
