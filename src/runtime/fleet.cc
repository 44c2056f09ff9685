#include "runtime/fleet.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/journal.h"
#include "runtime/limits.h"
#include "util/cpu.h"
#include "util/log.h"

namespace sonata::runtime {

namespace nt = net::transport;

Fleet::Fleet(planner::Plan plan, std::size_t switch_count, std::size_t worker_threads,
             std::size_t batch_size, fault::FaultSpec faults, bool pin_workers)
    : plan_(std::move(plan)),
      sp_(std::make_unique<StreamProcessor>(plan_)),
      batch_size_(std::max<std::size_t>(batch_size, 1)),
      pool_(std::min(worker_threads, switch_count), [this] { for (auto& w : workers_) wake(*w); }),
      pin_workers_(pin_workers) {
  assert(switch_count >= 1);
  if (std::string err = switch_count_error(switch_count); !err.empty()) {
    throw std::invalid_argument(err);
  }
  // A stall without a watchdog would spin the window barrier forever
  // (parse_fault_spec rejects this; assert for programmatic specs).
  assert(faults.stall_windows == 0 || faults.watchdog_ms > 0);
  if (faults.any()) injector_ = std::make_unique<fault::Injector>(faults);
  if (faults.wire_active()) {
    for (std::size_t i = 0; i < switch_count; ++i) {
      senders_.emplace_back(
          static_cast<std::uint16_t>(i), nt::max_frame_payload(nt::TransportKind::kShm),
          *injector_, [this](const nt::Frame& f) { reassembly_.push(f, delivered_); });
    }
    received_.resize(switch_count);
    lost_frames_ctr_ = &obs::Registry::global().counter("sonata_net_lost_total");
  }
  quarantined_.assign(switch_count, 0);

  auto& reg = obs::Registry::global();
  wakeups_ctr_ = &reg.counter("sonata_fleet_wakeups_total");
  backoffs_ctr_ = &reg.counter("sonata_fleet_backoffs_total");
  sleeps_ctr_ = &reg.counter("sonata_fleet_sleeps_total");
  partial_windows_ctr_ = &reg.counter("sonata_fleet_partial_windows_total");
  driver_runs_ctr_ = &reg.counter("sonata_fleet_driver_runs_total");

  // One identical switch program per ingress point.
  for (std::size_t i = 0; i < switch_count; ++i) {
    auto shard = std::make_unique<Shard>(ring_capacity_for(batch_size_), plan_.switch_config, i);
    {
      const std::pair<std::string_view, std::string> labels[] = {{"sw", std::to_string(i)}};
      shard->packets_ctr = &reg.counter(obs::labeled("sonata_fleet_packets_total", labels));
      shard->stalls_ctr = &reg.counter(obs::labeled("sonata_fleet_stalls_total", labels));
      static constexpr std::uint64_t kRingBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
      shard->ring_depth =
          &reg.histogram(obs::labeled("sonata_fleet_ring_depth", labels), kRingBounds);
    }
    // Register pressure (fault injection): install with registers sized
    // for traffic that has since drifted (shrunken n) and/or an
    // adversarial hash seed, forcing collision-overflow storms.
    shard->exec.install(plan_, {faults.register_shrink, faults.hash_seed}, {});
    shards_.push_back(std::move(shard));
  }

  // Shard i's worker is i % threads; the driver may drain any shard whose
  // claim it takes, one consumer at a time (Fleet::drain).
  const std::size_t threads = std::min(worker_threads, switch_count);
  for (std::size_t w = 0; w < threads; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->slot = w + 1;
    for (std::size_t i = w; i < shards_.size(); i += threads) {
      worker->shards.push_back(shards_[i].get());
    }
    workers_.push_back(std::move(worker));
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, worker = workers_[w].get(), w] {
      if (pin_workers_) {
        const int core = util::pin_thread_to_core(w);
        if (core >= 0) {
          pinned_workers_.fetch_add(1, std::memory_order_relaxed);
          SONATA_DEBUG("fleet", "worker %zu pinned to core %d (numa node %d)", w, core,
                       util::numa_node_of_core(core));
        } else {
          SONATA_DEBUG("fleet", "worker %zu pin failed", w);
        }
      }
      worker_loop(*worker);
    });
  }
}

std::size_t Fleet::ring_capacity_for(std::size_t batch_size) noexcept {
  return std::bit_ceil(std::max<std::size_t>(1024, 4 * batch_size));
}

Fleet::~Fleet() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) wake(*w);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool Fleet::stalled(const Shard& shard) const noexcept {
  return injector_ != nullptr &&
         injector_->stall_active(shard.index, window_pub_.load(std::memory_order_acquire));
}

bool Fleet::maybe_resync(Shard& shard) {
  std::uint64_t target = shard.resync_to.load(std::memory_order_acquire);
  if (target == 0) return false;
  do {
    // Discard the condemned ring prefix without processing it; the driver
    // flushed every staged packet before quarantining, so the ring holds
    // everything up to `target`.
    while (shard.drained.load(std::memory_order_relaxed) < target) {
      const std::size_t want = static_cast<std::size_t>(
          target - shard.drained.load(std::memory_order_relaxed));
      const auto run = shard.queue.front_run(want);
      if (run.empty()) {
        std::this_thread::yield();
        continue;
      }
      shard.queue.retire(run.size());
      shard.drained.fetch_add(run.size(), std::memory_order_release);
    }
    // Clean slate: discard the quarantined window's partial output and
    // reset the registers, so the shard's next window starts from the same
    // switch state a healthy close would have left.
    shard.exec.clear();
    shard.phases.reset();
    shard.exec.sw().reset_all_registers();
  } while (!shard.resync_to.compare_exchange_strong(target, 0, std::memory_order_acq_rel));
  // Emitting from any thread is fine: the journal ring is lock-free and sharded.
  obs::Journal::global().emit(obs::EventType::kShardResynced,
                              window_pub_.load(std::memory_order_relaxed), 0,
                              static_cast<std::uint32_t>(shard.index));
  return true;
}

std::size_t Fleet::drain(Shard& shard, std::size_t max_runs) {
  // The acquire pairs with the previous holder's release, so its ring,
  // arena and phase writes are visible before this thread touches them.
  if (shard.claim.exchange(true, std::memory_order_acquire)) return 0;
  const std::uint64_t slow_ns = injector_ ? injector_->spec().slow_ns : 0;
  std::size_t runs = 0;
  while (runs < max_runs) {
    if (maybe_resync(shard)) continue;
    if (stalled(shard)) break;
    // Zero-copy drain: process packets in place in the ring slots, then
    // retire the run — no move out of the ring.
    const std::span<const net::Packet> run = shard.queue.front_run(batch_size_);
    if (run.empty()) break;
    // Re-check the quarantine cell after observing the run: the acquire
    // load of the ring head that made these packets visible also made
    // any earlier quarantine visible, so packets enqueued after a
    // quarantine can never be processed into a condemned emit arena.
    if (shard.resync_to.load(std::memory_order_acquire) != 0) continue;
    if (slow_ns > 0) {
      injector_->note_slowdown();
      std::this_thread::sleep_for(std::chrono::nanoseconds(slow_ns));
    }
    shard.exec.run(run, shard.phases);
    shard.queue.retire(run.size());
    // Release-publish the buffer writes; the driver's acquire load at
    // the barrier makes them visible without locks.
    shard.drained.fetch_add(run.size(), std::memory_order_release);
    ++runs;
  }
  shard.claim.store(false, std::memory_order_release);
  return runs;
}

bool Fleet::drive_one_run(std::size_t from) {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::size_t i = from + k < shards_.size() ? from + k : from + k - shards_.size();
    if (drain(*shards_[i], 1) != 0) {
      ++driver_runs_;  // published at the barrier: no shared write here
      return true;
    }
  }
  return false;
}

void Fleet::worker_loop(Worker& w) {
  std::uint64_t flushed_yields = 0, flushed_sleeps = 0;
  for (;;) {
    bool did_work = pool_.help(w.slot);
    // Drain each of its shards dry, skipping one the driver holds.
    for (Shard* shard : w.shards) did_work |= drain(*shard, SIZE_MAX) != 0;
    if (did_work) {
      w.backoff.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Bounded spin before sleeping: a ring refill typically lands within
    // the pause/yield phases, and parking through the cv costs a syscall
    // round-trip plus the producer's mutex on every subsequent wake.
    if (!w.backoff.exhausted()) {
      w.backoff.pause();
      continue;
    }
    // Quiet point: flush the backoff tallies before parking.
    backoffs_ctr_->add(w.backoff.yields() - flushed_yields);
    sleeps_ctr_->add(w.backoff.sleeps() - flushed_sleeps);
    flushed_yields = w.backoff.yields();
    flushed_sleeps = w.backoff.sleeps();
    // Dekker handshake with wake(): publish "about to park", then check for
    // a signal that raced in; wake() stores signal before loading asleep,
    // so one side always sees the other.
    w.asleep.store(true, std::memory_order_seq_cst);
    if (w.signal.load(std::memory_order_seq_cst) ||
        stop_.load(std::memory_order_acquire)) {
      w.asleep.store(false, std::memory_order_relaxed);
      w.signal.store(false, std::memory_order_relaxed);
      w.backoff.reset();
      continue;
    }
    {
      std::unique_lock lk(w.mutex);
      w.cv.wait(lk, [&] {
        return w.signal.load(std::memory_order_relaxed) ||
               stop_.load(std::memory_order_acquire);
      });
    }
    w.asleep.store(false, std::memory_order_relaxed);
    w.signal.store(false, std::memory_order_relaxed);
    w.backoff.reset();
  }
}

void Fleet::wake(Worker& w) {
  // Wake elision: the common case (worker awake and scanning) is one
  // seq_cst store + one load, no mutex, no notify, no counter traffic.
  w.signal.store(true, std::memory_order_seq_cst);
  if (!w.asleep.load(std::memory_order_seq_cst)) return;
  wakeups_ctr_->add(1);
  {
    // The empty critical section closes the lost-wakeup window: a worker
    // past its signal re-check but not yet inside cv.wait holds the mutex,
    // so this lock cannot complete until it parks — and the notify below
    // then lands. (cv.wait re-checks the predicate under the lock.)
    std::lock_guard lk(w.mutex);
  }
  w.cv.notify_one();
}

void Fleet::shed_packet(Shard& /*shard*/) {
  // Ring stayed full past the watchdog budget: drop at ingest rather than
  // block the driver (and with it every healthy shard) on a sick worker.
  // The packet is already counted in current_.packets.
  ++current_.shed_packets;
  injector_->note_shed(1);
}

std::uint64_t Fleet::send_over_wire(FrameItems& items) {
  std::uint64_t mutated = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    received_[i].records.clear();
    if (quarantined_[i]) continue;
    FrameSender& sender = senders_[i];
    const std::uint64_t mutated_before = sender.mutated_sent();
    delivered_.clear();
    ChunkWriter out = sender.writer(nt::FrameType::kRecords, i, "record");
    if (!sender.send_records(out, shards_[i]->exec.records())) {
      SONATA_WARN("fleet", "switch %zu: %s", i, out.error().c_str());
    }
    sender.flush();
    const std::uint64_t lost =
        reassembly_.flush_to(static_cast<std::uint16_t>(i), sender.next_seq(), delivered_);
    // Faults never touch a frame's header, so every frame reads.
    for (const nt::Frame& f : delivered_) (void)read_data_frame(f, size(), received_, items);
    mutated += sender.mutated_sent() - mutated_before;
    if (lost > 0) {
      lost_frames_ctr_->add(lost);
      current_.contribution_mask &= ~(1ull << i);
      current_.partial = true;
    }
  }
  return mutated;
}

void Fleet::ingest_at(std::size_t switch_index, const net::Packet& packet) {
  ++current_.packets;
  Shard& shard = *shards_.at(switch_index);
  const bool watchdog = injector_ != nullptr && injector_->spec().watchdog_ms > 0;
  if (workers_.empty()) {
    // Inline: materialize straight into a warm tuple slot (no packet copy)
    // and run the pipelines once a batch has gathered.
    if (shard.exec.stage(packet) >= batch_size_) flush_shard(switch_index);
    return;
  }
  // Threaded batch path: stage straight into the ring slot (one copy, no
  // intermediate buffer); the slot stays invisible to the worker until the
  // batch-boundary publish.
  Worker& w = *workers_[switch_index % workers_.size()];
  if (!shard.queue.try_stage(packet)) {
    // Ring full: publish what we have, make sure the worker is awake, and
    // drain runs beside it (this shard first), backing off only when every
    // shard is empty, stalled or held.
    shard.stalls_ctr->add(1);
    if (watchdog) {
      if (shard.shedding) {
        shed_packet(shard);
        return;
      }
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(injector_->spec().watchdog_ms);
      for (;;) {
        flush_shard(switch_index);
        wake(w);
        if (!drive_one_run(switch_index)) driver_backoff_.pause();
        if (shard.queue.try_stage(packet)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          shard.shedding = true;
          shed_packet(shard);
          driver_backoff_.reset();
          return;
        }
      }
    } else {
      do {
        flush_shard(switch_index);
        wake(w);
        if (!drive_one_run(switch_index)) driver_backoff_.pause();
      } while (!shard.queue.try_stage(packet));
    }
    driver_backoff_.reset();
  }
  ++shard.staged_count;
  if (shard.staged_count >= batch_size_) flush_shard(switch_index);
}

void Fleet::flush_shard(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (workers_.empty()) {
    if (shard.exec.staged() == 0) return;
    shard.packets_ctr->add(shard.exec.staged());
    obs::PhaseTimer t{driver_phases_, obs::Phase::kCompute};
    shard.exec.flush();
    return;
  }
  if (shard.staged_count == 0) return;
  const bool was_empty = shard.queue.publish();
  shard.enqueued += shard.staged_count;
  if (obs::enabled()) {
    shard.packets_ctr->add(shard.staged_count);
    // Queue occupancy as the worker sees it right after this publish.
    shard.ring_depth->observe(shard.enqueued - shard.drained.load(std::memory_order_relaxed));
  }
  shard.staged_count = 0;
  if (was_empty) wake(*workers_[shard_index % workers_.size()]);
}

void Fleet::ingest(const net::Packet& packet) {
  ingest_at(route_to_shard(packet, shards_.size()), packet);
}

void Fleet::drain_barrier() {
  // Hand over every partially filled batch first (inline mode processes it
  // right here), then wait for the workers to publish everything enqueued.
  for (std::size_t i = 0; i < shards_.size(); ++i) flush_shard(i);
  std::fill(quarantined_.begin(), quarantined_.end(), std::uint8_t{0});
  if (workers_.empty()) {
    current_.contribution_mask = full_contribution_mask(shards_.size());
    return;
  }
  const bool watchdog = injector_ != nullptr && injector_->spec().watchdog_ms > 0;
  // One shared budget for the whole barrier: a healthy barrier completes in
  // microseconds, so the deadline only matters when a worker is sick, and
  // sharing it keeps the degraded window close bounded by one budget rather
  // than one per stalled shard.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(watchdog ? injector_->spec().watchdog_ms : 0);
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    bool healthy = true;
    for (;;) {
      // A shard still finishing an older quarantine has not caught up even
      // if drained momentarily equals enqueued, so wait the resync out too.
      if (s.resync_to.load(std::memory_order_acquire) == 0 &&
          s.drained.load(std::memory_order_acquire) == s.enqueued) {
        break;
      }
      if (watchdog && std::chrono::steady_clock::now() >= deadline) {
        healthy = false;
        break;
      }
      // Workers may have raced to sleep around the last push; keep them
      // awake until their queues are dry, and drain beside them.
      wake(*workers_[i % workers_.size()]);
      if (!drive_one_run(i)) driver_backoff_.pause();
    }
    driver_backoff_.reset();
    if (healthy) {
      if (i < 64) mask |= 1ull << i;
    } else {
      // Quarantine: this shard's window is lost. Everything it was handed
      // since the last barrier counts late, its merge contribution is
      // skipped, and the worker is told to discard up to the current
      // enqueue count and reset before rejoining.
      quarantined_[i] = 1;
      const std::uint64_t late = s.enqueued - s.barrier_mark;
      current_.late_packets += late;
      injector_->note_watchdog_fire();
      injector_->note_late(late);
      obs::Journal::global().emit(obs::EventType::kShardQuarantined, current_.window_index, 0,
                                  static_cast<std::uint32_t>(i),
                                  static_cast<std::int64_t>(late), 0, 0, "watchdog timeout");
      // enqueued > 0 here: unhealthy requires drained != enqueued (or a
      // prior resync still pending, whose target was itself > 0).
      s.resync_to.store(s.enqueued, std::memory_order_release);
      wake(*workers_[i % workers_.size()]);
    }
    s.barrier_mark = s.enqueued;
  }
  current_.contribution_mask = mask;
  current_.partial = mask != full_contribution_mask(shards_.size());
}

WindowStats Fleet::do_close_window() {
  // Fix the closing window's index up front so journal events emitted
  // during the barrier/close (quarantine, sketch bounds) carry it; the
  // final increment below assigns the same value.
  current_.window_index = window_counter_;
  FrameItems wire_items;
  std::uint64_t mutated = 0;  // mutated reports the wire delivered
  {
    obs::PhaseTimer merge_timer{driver_phases_, obs::Phase::kMerge};

    // 0. Window barrier: every shard queue drained, worker buffers
    //    published — or, under a watchdog, stragglers quarantined
    //    (quarantined_[i] set, their bit cleared from the contribution
    //    mask; their arenas are skipped below and wiped by the worker's
    //    resync, never merged).
    drain_barrier();

    // 1. The faulty wire draws its decisions here, before any task runs.
    if (!senders_.empty()) mutated = send_over_wire(wire_items);
  }
  // The barrier made every worker's phase clock visible (the same
  // release/acquire pair that publishes the emit arenas); fold the
  // workers' ingest/compute time into this window's breakdown.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (quarantined_[i]) continue;  // consumer-owned until its resync clears it
    driver_phases_.merge(shards_[i]->phases);
    shards_[i]->phases.reset();
  }

  // A quarantined switch is consumer-owned until its resync completes:
  // the close reads neither its stats nor its registers.
  healthy_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!quarantined_[i]) healthy_.push_back(shards_[i].get());
  }
  std::vector<double> control_before;  // by healthy shard
  for (Shard* s : healthy_) control_before.push_back(s->exec.sw().stats().control_update_millis);

  // 2. Parallel poll + reset, one task per healthy shard: poll its
  //    stateful tails into packed blocks (registers already hold the
  //    shard-locally merged aggregates) and reset its registers. After the
  //    barrier no worker touches a healthy shard's switch, so any thread
  //    may poll it. Quarantined switches are skipped: their registers hold
  //    a torn mid-window state and are reset by the shard's resync.
  {
    obs::PhaseTimer t{driver_phases_, obs::Phase::kPoll};
    pool_.run(healthy_.size(), [&](std::size_t i, std::size_t) { healthy_[i]->exec.poll_and_reset(); });
  }

  obs::PhaseTimer close_timer{driver_phases_, obs::Phase::kClose};

  // 3. The shared close over the healthy shards, one task per query, run
  //    by the workers and the driver; winners install on every healthy
  //    switch (a quarantined switch misses this window's winners —
  //    acceptable degradation, its next window runs one refinement step
  //    behind). A quarantined switch is consumer-owned, so the program comes
  //    from the first healthy one (every switch runs the identical program).
  //    Under wire faults a shard's records are the ones read back off its
  //    frames. A quarantined shard's guard-table drops count in its next
  //    healthy window.
  outputs_.clear();
  std::vector<pisa::Switch*> switches;
  for (Shard* s : healthy_) {
    outputs_.push_back(s->exec.output());
    if (!senders_.empty()) outputs_.back().records = received_[s->index].records;
    switches.push_back(&s->exec.sw());
    current_.tuples_to_sp += s->exec.tuples_to_sp();
    current_.raw_mirror_packets += s->exec.raw_mirror_packets();
    const std::uint64_t dropped = s->exec.sw().stats().dropped_packets;
    current_.dropped_packets += dropped - s->dropped_mark;
    s->dropped_mark = dropped;
  }
  sp_->begin_delivery(obs::enabled() ? obs::now_ns() : 0);
  const std::uint64_t unrouted = sp_->close_window(current_, outputs_,
                    healthy_.empty() ? std::span<const std::unique_ptr<pisa::CompiledSwitchQuery>>{}
                                     : healthy_.front()->exec.sw().pipelines(),
                    switches, pool_.slots(),
                    [this](std::size_t count, const util::Task& task) { pool_.run(count, task); });
  for (Shard* s : healthy_) s->exec.clear();  // a quarantined shard's resync wipes it

  // 4. Control latency = the slowest switch's update time this window
  //    (updates run in parallel across the fleet). The register reset
  //    itself already ran inside each shard's close phase; its modelled
  //    cost — plus this window's winner installs from step 3 — is in the
  //    stats delta, exactly as the serial close accounted it.
  double control = 0.0;
  for (std::size_t h = 0; h < healthy_.size(); ++h) {
    const double now = healthy_[h]->exec.sw().stats().control_update_millis;
    control = std::max(control, now - control_before[h]);
  }
  current_.control_update_millis = control;
  // Quiet point: flush the driver's spin-wait escalation tallies.
  backoffs_ctr_->add(driver_backoff_.yields() - driver_flushed_yields_);
  sleeps_ctr_->add(driver_backoff_.sleeps() - driver_flushed_sleeps_);
  driver_flushed_yields_ = driver_backoff_.yields();
  driver_flushed_sleeps_ = driver_backoff_.sleeps();
  driver_runs_ctr_->add(driver_runs_);
  driver_runs_ = 0;
  close_timer.stop();
  current_.phases = to_breakdown(driver_phases_);
  driver_phases_.reset();

  // 5. Fault accounting: a report that did not decode or routes nowhere
  //    is a decode failure, and every other mutated report the wire
  //    delivered went in as bad data. Then attribute this window's slice of
  //    the injector's cumulative counters, and re-arm shedding for the next
  //    window.
  if (injector_) {
    const std::uint64_t failures = wire_items.decode_failures + unrouted;
    injector_->note_decode_failures(failures);
    injector_->note_corrupted_delivered(mutated - std::min(mutated, failures));
    const fault::FaultAccount cumulative = injector_->account();
    current_.faults = cumulative - last_account_;
    last_account_ = cumulative;
    if (current_.partial) partial_windows_ctr_->add(1);
    for (auto& s : shards_) s->shedding = false;
  }

  current_.window_index = window_counter_++;
  // Publish the new window index to workers (stall schedules key on it).
  window_pub_.store(window_counter_, std::memory_order_release);
  WindowStats out = std::move(current_);
  current_ = WindowStats{};
  return out;
}

void Fleet::apply_plan(planner::Plan plan) {
  // Runs on the driver thread right after do_close_window, so every ring
  // is drained — EXCEPT a quarantined shard whose claim holder is still
  // mid-resync and touching its switch. Wait those out: after resync_to
  // returns to zero with drained == enqueued a claim holder can only poll
  // an empty ring, so the switches are driver-owned for the swap.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    while (s.resync_to.load(std::memory_order_acquire) != 0 ||
           s.drained.load(std::memory_order_acquire) != s.enqueued) {
      if (!workers_.empty()) wake(*workers_[i % workers_.size()]);
      driver_backoff_.pause();
    }
    driver_backoff_.reset();
  }
  // Tear down the SP before replacing plan_ (it holds pointers into it),
  // then reinstall every shard against the new plan. Pipeline reuse is
  // per shard: each shard hands its own compiled pipelines back and keeps
  // the unchanged ones (runtime state reset). Register-pressure faults are
  // not re-applied — the swap installs clean, like an auto-replan.
  sp_.reset();
  for (auto& shard : shards_) shard->exec.install(plan, {}, shard->exec.sw().release_pipelines());
  plan_ = std::move(plan);
  sp_ = std::make_unique<StreamProcessor>(plan_);
}

}  // namespace sonata::runtime
