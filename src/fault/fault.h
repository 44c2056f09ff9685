// Deterministic, seed-driven fault injection (DESIGN.md "Fault model &
// degradation").
//
// The paper's evaluation assumes a clean split: the switch mirrors reports,
// the stream processor consumes them, workers keep up, registers were sized
// for the traffic. This subsystem makes every one of those assumptions
// breakable on purpose, so the runtime's degradation paths (watchdog,
// partial windows, auto-replan) are exercised by real end-to-end faults
// instead of unit mocks:
//
//   - wire faults: mirrored reports are corrupted, truncated, dropped,
//     duplicated or reordered between the switch's monitoring port and the
//     stream processor (runtime::WireChannel round-trips every record
//     through the report codec, so the decoder's bounds checks run on every
//     mutated byte stream);
//   - worker faults: a fleet worker is slowed (slow_ns per drained run) or
//     stalled outright for a window range, driving real SPSC-ring
//     backpressure against the driver;
//   - register pressure: installed register chains are shrunk by a factor
//     (the plan was sized for traffic that has since drifted) and/or given
//     an adversarial hash seed, forcing collision-overflow storms that feed
//     the re-planning trigger.
//
// Everything is deterministic given the spec's seed: wire decisions are
// drawn from one PRNG on the merge thread in delivery order, and
// stall/slowdown schedules are pure functions of (switch, window). Every
// injected fault is counted twice — in the Injector's own account and in
// obs counters (sonata_fault_*_total, live while obs::enabled()) — so a
// chaos run with obs on can assert that nothing was dropped silently
// (bench/ext_chaos_soak invariant 3).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace sonata::fault {

// What to inject. Parsed from `--fault-spec k=v,...`; all fields default to
// "no fault". Rates are per mirrored record; wire rates must sum to <= 1
// (each record draws one uniform and suffers at most one wire fault).
struct FaultSpec {
  std::uint64_t seed = 1;  // drives every random fault decision

  // -- wire faults (switch -> stream processor report channel) ---------
  double corrupt_rate = 0.0;   // flip one random bit of the encoded report
  double truncate_rate = 0.0;  // cut the encoded report at a random offset
  double drop_rate = 0.0;      // lose the report entirely
  double dup_rate = 0.0;       // deliver the report twice
  double reorder_rate = 0.0;   // delay the report past its successor

  // -- worker faults (fleet only) --------------------------------------
  std::uint64_t slow_ns = 0;         // sleep per drained run, on every thread that drains
  std::size_t stall_switch = 0;      // shard whose worker stalls
  std::uint64_t stall_from_window = 0;
  std::uint64_t stall_windows = 0;   // 0 = no stall

  // -- graceful degradation --------------------------------------------
  // Per-window close budget: a shard that cannot drain within this many
  // milliseconds is quarantined and the window closes partial. 0 disables
  // the watchdog (required > 0 when a stall is configured, or the window
  // barrier would spin forever).
  std::uint64_t watchdog_ms = 0;

  // -- switch-side register pressure -----------------------------------
  std::size_t register_shrink = 1;  // divide planned register entries by this
  std::uint64_t hash_seed = 0;      // adversarial register hash seed (0 = default)

  [[nodiscard]] bool wire_active() const noexcept {
    return corrupt_rate > 0 || truncate_rate > 0 || drop_rate > 0 || dup_rate > 0 ||
           reorder_rate > 0;
  }
  [[nodiscard]] bool any() const noexcept {
    return wire_active() || slow_ns > 0 || stall_windows > 0 || watchdog_ms > 0 ||
           register_shrink > 1 || hash_seed != 0;
  }

  // Round-trippable through parse_fault_spec.
  [[nodiscard]] std::string to_string() const;
};

// Parse "k=v,k=v,..." (keys: seed, corrupt, truncate, drop, dup, reorder,
// slow_ns, stall_switch, stall_from, stall_windows, watchdog_ms, shrink,
// hash_seed). Returns nullopt and sets *error on unknown keys, malformed
// values, rates outside [0,1], wire rates summing past 1, shrink == 0, or a
// stall without a watchdog.
[[nodiscard]] std::optional<FaultSpec> parse_fault_spec(std::string_view text,
                                                        std::string* error = nullptr);

// Cumulative injected-fault counts, snapshot-able and subtractable so the
// drivers can report a per-window delta in WindowStats::faults.
struct FaultAccount {
  // Wire faults (merge-thread writes).
  std::uint64_t corrupted = 0;            // reports with a flipped bit
  std::uint64_t corrupted_delivered = 0;  // ...that still decoded (bad data in)
  std::uint64_t truncated = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t decode_failures = 0;  // corrupt/truncated reports the codec rejected
  // Worker faults and degradation (worker + driver writes).
  std::uint64_t slowdowns = 0;       // runs delayed by slow_ns
  std::uint64_t watchdog_fires = 0;  // shards quarantined at a window barrier
  std::uint64_t late_packets = 0;    // packets lost with a quarantined shard
  std::uint64_t shed_packets = 0;    // packets shed at ingest (ring full past budget)

  // Faults that can change window output (slowdowns only cost time).
  [[nodiscard]] std::uint64_t output_affecting() const noexcept {
    return corrupted + truncated + dropped + duplicated + reordered + watchdog_fires +
           late_packets + shed_packets;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return output_affecting() + slowdowns; }

  FaultAccount operator-(const FaultAccount& o) const noexcept;
  friend bool operator==(const FaultAccount&, const FaultAccount&) = default;
};

// Outcome of pushing one encoded report through the faulty wire.
struct WireOutcome {
  enum class Kind : std::uint8_t {
    kDeliver,    // pass the (possibly mutated) bytes to the decoder
    kDrop,       // lost on the wire
    kDuplicate,  // deliver twice
    kHold,       // delay past the next record (reorder)
  };
  Kind kind = Kind::kDeliver;
  bool mutated = false;  // bytes were corrupted or truncated
};

// The injector: owns the spec, the fault PRNG and the cumulative account.
// Wire decisions must come from a single thread (the drivers' merge thread)
// so they are deterministic in delivery order; the note_* hooks are
// relaxed-atomic and safe from worker threads.
class Injector {
 public:
  explicit Injector(FaultSpec spec);

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  // Decide the fate of one encoded report, mutating `bytes` in place for
  // corruption/truncation. `can_hold` is false while a previous record is
  // still held for reordering (at most one in flight). Merge thread only.
  WireOutcome apply_wire(std::vector<std::byte>& bytes, bool can_hold);

  // Is `switch_index`'s worker stalled during `window`? Pure function of
  // the spec; safe from any thread.
  [[nodiscard]] bool stall_active(std::size_t switch_index,
                                  std::uint64_t window) const noexcept {
    return spec_.stall_windows > 0 && switch_index == spec_.stall_switch &&
           window >= spec_.stall_from_window &&
           window < spec_.stall_from_window + spec_.stall_windows;
  }

  // Accounting hooks (each also bumps the matching obs counter).
  void note_decode_failure() noexcept;
  void note_corrupted_delivered() noexcept;
  void note_slowdown() noexcept;
  void note_watchdog_fire() noexcept;
  void note_late(std::uint64_t packets) noexcept;
  void note_shed(std::uint64_t packets) noexcept;

  // Relaxed snapshot of the cumulative account. Exact whenever workers are
  // quiesced (the drivers read it right after the window barrier).
  [[nodiscard]] FaultAccount account() const noexcept;

 private:
  FaultSpec spec_;
  util::Rng rng_;  // merge-thread only

  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> corrupted_delivered_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> reordered_{0};
  std::atomic<std::uint64_t> decode_failures_{0};
  std::atomic<std::uint64_t> slowdowns_{0};
  std::atomic<std::uint64_t> watchdog_fires_{0};
  std::atomic<std::uint64_t> late_packets_{0};
  std::atomic<std::uint64_t> shed_packets_{0};

  // Registered once at construction. Like every obs instrument the adds
  // are gated on obs::enabled(); the chaos gate turns obs on so it can
  // assert counter == account equality.
  obs::Counter* corrupted_ctr_;
  obs::Counter* corrupted_delivered_ctr_;
  obs::Counter* truncated_ctr_;
  obs::Counter* dropped_ctr_;
  obs::Counter* duplicated_ctr_;
  obs::Counter* reordered_ctr_;
  obs::Counter* decode_failures_ctr_;
  obs::Counter* slowdowns_ctr_;
  obs::Counter* watchdog_fires_ctr_;
  obs::Counter* late_packets_ctr_;
  obs::Counter* shed_packets_ctr_;
};

}  // namespace sonata::fault
