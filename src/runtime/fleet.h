// Network-wide telemetry: one plan deployed on a fleet of switches that
// each observe a share of the traffic, with a single stream processor
// merging their state (paper §8's first future-work item; cf. the authors'
// follow-up on network-wide heavy-hitter detection with commodity
// switches).
//
// The merge falls out of Sonata's overflow-correction design: every
// switch's end-of-window register poll re-enters the shared stream
// executors *at the reduce* as deltas, so per-switch partial aggregates
// combine exactly. A key whose count stays below threshold on every single
// switch is still detected when the network-wide sum crosses it — the
// headline capability of network-wide telemetry. Dynamic-refinement winner
// keys are computed once (over merged state) and installed on every
// switch. The single-switch Runtime (runtime/runtime.h) is a Fleet of one
// shard with no workers.
//
// Threading model (DESIGN.md "Parallel fleet execution"). Each switch is a
// *shard*: the switch itself, a bounded SPSC ingest queue fed by the
// driver thread, and a per-window emit arena (mirrored records, raw
// mirror tuples, counters). With `worker_threads == 0` shards execute
// inline in the caller; otherwise the per-switch hot path (parse ->
// match-action -> register updates -> emit) runs concurrently during the
// window, and a shard's consumer side is claimable: whoever holds its
// claim (acquire to take, release to drop) drains its ring and writes its
// arena. Shard i's worker (i % worker_threads) drains it dry whenever it
// holds the claim; the driver, instead of spinning behind a full ring or
// at the barrier, drains one run of any unclaimed shard. One consumer at
// a time keeps per-shard packet order. close_window() is the barrier: the
// driver waits until every queue is drained, then the workers and the
// driver poll the shards' registers and run the shared close's per-query
// tasks (DESIGN.md "Parallel window close"). Each task reads the shard
// buffers in ascending switch order — the order the inline path produces
// — so results and tuple counts are bit-identical for any thread count.
//
// Batching (DESIGN.md "Data-path memory model"). The driver accumulates up
// to `batch_size` packets per shard before handing them over; the handoff
// moves the whole run through the SPSC ring with one acquire/release pair
// and at most one worker wakeup, and the worker runs it in place through
// the shard's ShardExec (runtime/shard_exec.h), the per-switch data path
// every driver shares. Per-shard packet order — and therefore the merged
// output — is identical for every batch size; batch 1 runs the batched
// path one packet at a time.
//
// Fault injection & graceful degradation (DESIGN.md "Fault model &
// degradation"). With a FaultSpec configured the fleet can corrupt the
// report wire (merged records round-trip the report codec through a
// WireChannel), slow or stall workers, and — when a per-window watchdog
// budget is set — survive a stalled shard: the barrier times out, the
// shard is quarantined for the window (its contribution skipped, its bit
// cleared in WindowStats::contribution_mask, its packets counted late),
// and the merge completes partial. The quarantined shard later re-syncs:
// its next claim holder discards the condemned ring contents, clears its
// emit arena, and resets its switch registers, so the next window starts
// from clean state.
// Ingest sheds packets (counted) instead of spinning once a ring stays
// full past the watchdog budget. With no spec configured every hook is a
// single null check — the fault path costs nothing when disabled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/packet.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "runtime/engine.h"
#include "runtime/shard_exec.h"
#include "runtime/spsc_queue.h"
#include "runtime/stream_processor.h"
#include "util/task_pool.h"
#include "runtime/window_merge.h"
#include "runtime/wire_channel.h"

namespace sonata::runtime {

class Fleet : public TelemetryEngine {
 public:
  // Deploys `plan` on `switch_count` identical switches, processed by
  // `worker_threads` workers (0 = inline in the calling thread; capped at
  // `switch_count` since a switch has one consumer at a time). `batch_size`
  // is the per-shard handoff granularity; batch 1 runs the batched path one
  // packet at a time. The plan's base queries must outlive the Fleet. `faults`
  // configures deterministic fault injection (default: none — hooks
  // compile to null checks); a stall requires faults.watchdog_ms > 0, and
  // worker stalls/slowdowns only apply in threaded mode.
  // `pin_workers` pins worker i to allowed core i % cores (NUMA-local by
  // construction: a worker allocates its working set from the core it runs
  // on, and first-touch places the pages on that core's node).
  // Throws std::invalid_argument (with switch_count_error's reason) for
  // more than kMaxSwitches switches; EngineBuilder::build reports the same
  // case as a kTopology diagnostic instead.
  Fleet(planner::Plan plan, std::size_t switch_count, std::size_t worker_threads = 0,
        std::size_t batch_size = 1, fault::FaultSpec faults = {}, bool pin_workers = false);
  ~Fleet() override;

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t worker_threads() const noexcept { return workers_.size(); }
  // Workers successfully pinned to a core (0 unless pin_workers was set).
  [[nodiscard]] std::size_t pinned_workers() const noexcept {
    return pinned_workers_.load(std::memory_order_relaxed);
  }

  // Per-shard ring capacity for a handoff batch of `batch_size` packets:
  // room for four batches in flight (at least 1024 slots), a power of two.
  // A ring of exactly one batch would make the driver and the worker take
  // turns instead of overlapping.
  [[nodiscard]] static std::size_t ring_capacity_for(std::size_t batch_size) noexcept;

  // Ingest a packet at a specific ingress switch.
  void ingest_at(std::size_t switch_index, const net::Packet& packet);

  // Default routing: hash the flow 5-tuple onto a switch (models ECMP-like
  // traffic spread across ingress points). Thread-count independent.
  void ingest(const net::Packet& packet) override;

  [[nodiscard]] const planner::Plan& plan() const noexcept override { return plan_; }
  [[nodiscard]] std::size_t data_plane_count() const noexcept override { return shards_.size(); }
  [[nodiscard]] const pisa::Switch& data_plane(std::size_t i) const override {
    return shards_.at(i)->exec.sw();
  }
  [[nodiscard]] const Emitter& emitter() const noexcept override { return sp_->emitter(); }

 protected:
  // Close the window fleet-wide: drain every shard queue (the window
  // barrier), merge shard outputs in switch order, poll every switch,
  // refine, reset. Aggregated stats (packets/tuples summed over switches).
  WindowStats do_close_window() override;
  // Control-plane swap at the window barrier: reinstall every shard's
  // switch program (unchanged compiled pipelines are reused per shard) and
  // rebuild the shared stream processor. Waits out any in-flight resync
  // first — after the barrier a claim holder only touches its switch
  // during a quarantine resync, and the swap must not race it.
  // Register-pressure faults are not re-applied; a swap installs clean.
  void apply_plan(planner::Plan plan) override;
  [[nodiscard]] pisa::Switch& mutable_data_plane(std::size_t i) override {
    return shards_.at(i)->exec.sw();
  }

 private:
  struct Shard {
    Shard(std::size_t ring_capacity, const pisa::SwitchConfig& cfg, std::size_t i)
        : index(i), exec(cfg, std::to_string(i)), queue(ring_capacity) {}

    std::size_t index = 0;  // switch index (stall schedules key on it)
    // The switch and its window output. Written only by the claim holder
    // (the driver when inline) between barriers; read and cleared by the
    // driver after the barrier (publication via `drained`). Inline mode
    // stages packets into it; threaded mode stages them into ring slots.
    ShardExec exec;
    SpscQueue<net::Packet> queue;
    std::size_t staged_count = 0;  // driver-only: ring slots staged, unpublished

    std::uint64_t enqueued = 0;                // driver-only
    std::atomic<std::uint64_t> drained{0};     // claim holder-written (release)
    // The consumer role (Fleet::drain): its holder owns the ring's consumer
    // side, `exec`, `phases`, the `drained` publish and the resync.
    std::atomic<bool> claim{false};

    // Quarantine protocol (watchdog degradation). Non-zero = the driver
    // timed this shard out at a window barrier; the next claim holder must
    // discard ring contents up to this enqueue count, wipe its emit arena,
    // reset its switch registers, and CAS the cell back to zero. The CAS
    // (rather than a plain store) closes the race where the driver
    // re-quarantines with a larger target while a claim holder is
    // finishing an older one.
    std::atomic<std::uint64_t> resync_to{0};
    std::uint64_t barrier_mark = 0;  // driver-only: enqueued at last barrier
    std::uint64_t dropped_mark = 0;  // driver-only: switch drops at last healthy close
    bool shedding = false;           // driver-only: ring stayed full past budget

    // Consumer-side phase clock (ingest/compute), written by the claim
    // holder like the emit arena: published to the driver by the same
    // release/acquire pair as `drained`, merged and reset at the barrier.
    obs::PhaseAccum phases;

    // Registry handles, resolved once at construction (self-gated on
    // obs::enabled, so they cost one branch when observability is off).
    obs::Counter* packets_ctr = nullptr;   // packets handed to this shard
    obs::Counter* stalls_ctr = nullptr;    // ring-full backpressure events
    obs::Histogram* ring_depth = nullptr;  // queue occupancy at batch publish
  };

  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    // Wake elision (Dekker handshake): the producer's seq_cst store of
    // `signal` followed by its load of `asleep` pairs with the consumer's
    // seq_cst store of `asleep` followed by its load of `signal` — at least
    // one side sees the other, so the mutex+notify is only paid when the
    // worker is actually parked (or racing to park).
    std::atomic<bool> signal{false};
    std::atomic<bool> asleep{false};
    std::vector<Shard*> shards;
    std::size_t slot = 0;  // pool_ slot (the driver's is 0)
    Backoff backoff;  // worker-thread-owned idle backoff
    std::thread thread;
  };

  // Hand a shard's pending batch to its worker (or process it inline).
  void flush_shard(std::size_t shard_index);
  void worker_loop(Worker& w);
  void wake(Worker& w);
  void drain_barrier();
  // The consumer side of a shard, for whichever thread takes its claim:
  // runs a pending resync, then up to `max_runs` ring runs through the
  // ShardExec, stopping early at an empty ring or a stall. Returns the runs
  // drained; 0 without doing anything when another thread holds the claim.
  std::size_t drain(Shard& shard, std::size_t max_runs);
  // Driver: drain one run of the first unclaimed shard from `from` on,
  // wrapping; false when none had a run to drain.
  bool drive_one_run(std::size_t from);

  // Quarantine recovery for the claim holder: if the driver condemned this
  // shard, discard the condemned ring prefix, wipe the emit arena, reset
  // the switch, and re-arm. Returns true when a resync ran.
  bool maybe_resync(Shard& shard);
  // Is this shard stalled for the currently published window?
  [[nodiscard]] bool stalled(const Shard& shard) const noexcept;
  // Account one packet shed at ingest (ring full past the watchdog budget).
  void shed_packet(Shard& shard);

  planner::Plan plan_;
  // unique_ptr (not a value) so a control-plane swap can rebuild it; sp_
  // holds pointers into plan_, so it is reset before plan_ is replaced.
  std::unique_ptr<StreamProcessor> sp_;
  std::size_t batch_size_ = 1;

  // Fault injection (null/empty when no spec is configured — every hook on
  // the hot path is then one pointer test).
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<WireChannel> wire_;
  fault::FaultAccount last_account_;        // driver-only, for per-window deltas
  std::vector<std::uint8_t> quarantined_;   // driver-only, reset every window

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Shard*> healthy_;            // driver-only: this close's shards, reused
  std::vector<ShardOutput> outputs_;       // driver-only: the close's input, reused
  std::vector<pisa::EmitRecord> wired_;    // driver-only: records off the faulty wire
  util::TaskPool pool_;  // the close's tasks: the driver, and workers on every pass
  alignas(64) std::atomic<bool> stop_{false};

  bool pin_workers_ = false;
  std::atomic<std::size_t> pinned_workers_{0};

  WindowStats current_;
  obs::PhaseAccum driver_phases_;  // merge/poll/close (+ inline compute)
  Backoff driver_backoff_;         // driver-thread spin-wait escalation
  std::uint64_t driver_runs_ = 0;  // runs the driver drained, unpublished
  obs::Counter* driver_runs_ctr_ = nullptr;
  std::uint64_t driver_flushed_yields_ = 0;  // backoff tallies already published
  std::uint64_t driver_flushed_sleeps_ = 0;
  obs::Counter* wakeups_ctr_ = nullptr;
  obs::Counter* backoffs_ctr_ = nullptr;  // spin-wait yield escalations
  obs::Counter* sleeps_ctr_ = nullptr;    // spin-wait sleep escalations
  obs::Counter* partial_windows_ctr_ = nullptr;
  std::uint64_t window_counter_ = 0;
  // Window index visible to workers (stall schedules are window-keyed);
  // published at the end of every close_window.
  std::atomic<std::uint64_t> window_pub_{0};
};

}  // namespace sonata::runtime
