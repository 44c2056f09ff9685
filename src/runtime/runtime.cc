#include "runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <utility>

#include "obs/journal.h"
#include "runtime/plan_install.h"

namespace sonata::runtime {

using planner::PlannedPipeline;
using planner::PlannedQuery;
using query::Tuple;

Runtime::Runtime(planner::Plan plan, std::size_t batch_size, fault::FaultSpec faults)
    : batch_size_(std::max<std::size_t>(batch_size, 1)), faults_(faults) {
  if (faults.any()) injector_ = std::make_unique<fault::Injector>(faults);
  if (injector_ && faults.wire_active()) wire_ = std::make_unique<WireChannel>(*injector_);
  install_plan(std::move(plan), /*register_pressure=*/true);
}

void Runtime::install_plan(planner::Plan plan, bool register_pressure) {
  // Partial recompile: hand the outgoing program's pipelines to the shared
  // builder so unchanged (query, source, level, partition, sizing) entries
  // are reused with their runtime state reset. The match runs while BOTH
  // plans are alive, so node-pointer identity is sound.
  std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>> reusable;
  if (switch_) reusable = switch_->release_pipelines();
  PipelineBuildOptions build_opts;
  if (register_pressure) {
    // Register pressure (fault injection): install with registers sized
    // for traffic that has since drifted and/or an adversarial hash seed.
    // A swap (auto-replan or control plane) installs clean — re-planning
    // is the recovery from register pressure.
    build_opts.register_shrink = faults_.register_shrink;
    build_opts.hash_seed = faults_.hash_seed;
  }
  PipelineBuild build = build_pipelines(plan, std::move(reusable), build_opts);

  // Tear down in dependency order (sp_ holds pointers into plan_), then
  // rebuild. On the initial install this is a plain construction; on a
  // swap it replaces the switch program and the stream executors between
  // windows. Mitigation guard entries and dynamic filter winners do not
  // survive the swap — they are rebuilt from the next window's detections.
  sp_.reset();
  switch_.reset();
  plan_ = std::move(plan);
  switch_ = std::make_unique<pisa::Switch>(plan_.switch_config);
  sp_ = std::make_unique<StreamProcessor>(plan_);
  const std::string err = switch_->install(std::move(build.pipelines), build.resources);
  assert(err.empty() && "plan does not fit the switch it was planned for");
  (void)err;
}

void Runtime::apply_plan(planner::Plan plan) {
  install_plan(std::move(plan), /*register_pressure=*/false);
  // The fresh switch's drop counter restarts, and the old plan's overflow
  // history says nothing about the new register sizing.
  dropped_before_window_ = 0;
  overflow_streak_ = 0;
  replan_recommended_ = false;
}

void Runtime::deliver_record(pisa::EmitRecord&& rec) {
  const auto deliver = [&](pisa::EmitRecord&& d) {
    // Overflow counts only records the SP accepted: a corrupted header the
    // SP's routing boundary rejects never reached its counters either.
    const bool overflow = d.kind == pisa::EmitRecord::Kind::kOverflow;
    if (!sp_->deliver(std::move(d))) return false;
    if (overflow) {
      ++current_.overflow_records;
      ++total_overflows_;
    }
    return true;
  };
  if (wire_) {
    // Round-trip the record through the report codec over the faulty wire;
    // overflow accounting moves to the delivered side (a dropped overflow
    // report never reaches the stream processor — or its counters).
    wire_->transmit(rec, deliver);
  } else {
    deliver(std::move(rec));
  }
}

void Runtime::ingest(const net::Packet& packet) {
  ++current_.packets;
  if (auto_replan_) history_.back().push_back(packet);
  if (batch_size_ == 1) {
    // Legacy per-packet path (the equivalence baseline): fresh tuple, one
    // switch call, immediate delivery (ingest == delivery, so the latency
    // histogram records the floor bucket — delivery here is synchronous).
    Tuple source = query::materialize_tuple(packet);
    sink_.clear();
    switch_->process_one(source, sink_);
    const std::uint64_t now = obs::enabled() ? obs::now_ns() : 0;
    sp_->begin_delivery(now);
    for (pisa::EmitRecord& rec : sink_.records()) {
      rec.ingest_ns = now;
      ++total_records_;
      deliver_record(std::move(rec));
    }
    const bool raw = sp_->wants_raw_mirror();
    if (raw) {
      ++current_.raw_mirror_packets;
      ++total_records_;
      sp_->deliver_raw_batch({&source, 1});
    }
    if (raw || !sink_.empty()) ++current_.tuples_to_sp;
    return;
  }
  if (pending_used_ == 0 && obs::enabled()) pending_first_ns_ = obs::now_ns();
  if (pending_used_ == pending_tuples_.size()) pending_tuples_.emplace_back();
  query::materialize_tuple_into(packet, pending_tuples_[pending_used_++]);
  if (pending_used_ >= batch_size_) flush_pending();
}

void Runtime::flush_pending() {
  if (pending_used_ == 0) return;
  const std::span<Tuple> batch{pending_tuples_.data(), pending_used_};
  sink_.clear();
  {
    // One timed span and one switch call for the whole buffered batch.
    obs::PhaseTimer t{phase_accum_, obs::Phase::kCompute};
    switch_->process_batch(batch, sink_);
  }
  obs::PhaseTimer merge_timer{phase_accum_, obs::Phase::kMerge};
  if (pending_first_ns_ != 0) {
    // Stamp the whole batch's records with its first packet's ingest time
    // and the merge start as the delivery time — one clock read per batch
    // on each side, never per record. ingest_ns is metadata only; results
    // are bit-identical with metrics on or off.
    const std::uint64_t now = obs::now_ns();
    for (pisa::EmitRecord& rec : sink_.records()) rec.ingest_ns = pending_first_ns_;
    sp_->begin_delivery(now);
  } else {
    sp_->begin_delivery(0);
  }
  for (pisa::EmitRecord& rec : sink_.records()) {
    ++total_records_;
    deliver_record(std::move(rec));
  }
  // One mirrored packet per original packet: the PHV carries a single
  // report bit plus every query's intermediate results (paper §3.1.3), so
  // N counts packets with at least one emission (or the raw mirror).
  // tuples_to_sp stays switch-side accounting: what the switch *sent*, not
  // what survived a faulty wire.
  const bool raw = sp_->wants_raw_mirror();
  if (raw) {
    const std::uint64_t n = pending_used_;
    current_.raw_mirror_packets += n;
    total_records_ += n;
    current_.tuples_to_sp += n;
    sp_->deliver_raw_batch(batch);
  } else {
    current_.tuples_to_sp += sink_.packets_with_records();
  }
  pending_used_ = 0;
  pending_first_ns_ = 0;
}

WindowStats Runtime::do_close_window() {
  // Fix the closing window's index up front so journal events emitted
  // during the close (replan, sketch bounds) carry it; the final increment
  // below assigns the same value.
  current_.window_index = window_counter_;

  // 0. Flush the tail batch so the window observes every ingested packet,
  //    and release a still-held (reordered) report — reordering never
  //    crosses a window boundary.
  flush_pending();
  if (wire_) {
    wire_->flush([&](pisa::EmitRecord&& d) {
      // Held records are verbatim copies of routable records; the overflow
      // gate mirrors deliver_record's for uniformity.
      const bool overflow = d.kind == pisa::EmitRecord::Kind::kOverflow;
      if (!sp_->deliver(std::move(d))) return false;
      if (overflow) {
        ++current_.overflow_records;
        ++total_overflows_;
      }
      return true;
    });
  }

  // 1. Poll switch registers for stateful tails (control channel).
  {
    obs::PhaseTimer t{phase_accum_, obs::Phase::kPoll};
    sp_->poll_switch(*switch_);
  }

  obs::PhaseTimer close_timer{phase_accum_, obs::Phase::kClose};

  // 2. The shared close with no shard to deliver (records reached the SP
  //    as they were emitted), tasks inline: levels close coarse-to-fine;
  //    winners install into the next level's dynamic filter tables (they
  //    take effect for the next window).
  const double control_before = switch_->stats().control_update_millis;
  pisa::Switch* const switches[] = {switch_.get()};
  sp_->close_levels(current_, switches);

  // 3. Closed-loop mitigation: block the keys behind this window's
  //    detections (takes effect from the next window; paper Section 8).
  for (const auto& policy : mitigations_) {
    const PlannedQuery* pq = sp_->planned(policy.qid);
    if (!pq) continue;
    const int finest = pq->chain.back();
    const auto& schema = pq->exec_queries.at(finest).root()->output_schema();
    const auto col = schema.index_of(policy.output_column);
    if (!col) continue;
    for (const auto& result : current_.results) {
      if (result.qid != policy.qid) continue;
      for (const auto& t : result.outputs) {
        if (switch_->blocked_keys() >= policy.max_entries) break;
        switch_->block(policy.packet_field, t.at(*col));
      }
    }
  }

  // 4. Reset registers for the next window.
  switch_->reset_all_registers();
  close_timer.stop();
  current_.control_update_millis = switch_->stats().control_update_millis - control_before;
  current_.dropped_packets = switch_->stats().dropped_packets - dropped_before_window_;
  dropped_before_window_ = switch_->stats().dropped_packets;
  current_.phases = to_breakdown(phase_accum_);
  phase_accum_.reset();

  // Re-planning trigger: sustained collision overflow means the registers
  // were sized for different traffic (paper §5). The fraction is over
  // *processed* packets: mitigation-dropped packets never reach the
  // registers, so counting them in the denominator deflated the fraction
  // exactly when a drop storm coincided with register pressure — the
  // moment the trigger matters most.
  {
    const std::uint64_t dropped = std::min(current_.dropped_packets, current_.packets);
    const std::uint64_t processed = current_.packets - dropped;
    const double fraction = processed == 0 ? 0.0
                                           : static_cast<double>(current_.overflow_records) /
                                                 static_cast<double>(processed);
    overflow_streak_ = fraction > replan_policy_.overflow_threshold ? overflow_streak_ + 1 : 0;
    if (overflow_streak_ >= replan_policy_.consecutive_windows && !replan_recommended_) {
      replan_recommended_ = true;
      obs::Journal::global().emit(obs::EventType::kReplanTriggered, current_.window_index, 0, 0,
                                  static_cast<std::int64_t>(current_.overflow_records),
                                  overflow_streak_, 0, "overflow streak");
    }
  }

  // Acted-on re-planning: consume the recommendation by re-running the
  // planner against the retained live windows (whose key counts reflect
  // the drifted traffic) and hot-swapping the plan before the next window.
  if (replan_recommended_ && auto_replan_ && !history_.empty()) {
    std::vector<net::Packet> training;
    std::size_t total = 0;
    for (const auto& w : history_) total += w.size();
    training.reserve(total);
    for (const auto& w : history_) training.insert(training.end(), w.begin(), w.end());
    if (!training.empty()) {
      planner::Planner planner(auto_replan_cfg_.planner);
      install_plan(planner.plan(*auto_replan_cfg_.queries, training),
                   /*register_pressure=*/false);
      dropped_before_window_ = 0;  // the fresh switch's drop counter restarts
      replan_recommended_ = false;
      overflow_streak_ = 0;
      ++replans_;
      replans_ctr_->add(1);
      current_.plan_swapped = true;
      obs::Journal::global().emit(obs::EventType::kReplanApplied, current_.window_index, 0, 0,
                                  static_cast<std::int64_t>(replans_),
                                  static_cast<std::int64_t>(training.size()), 0, "auto-replan");
    }
  }
  if (auto_replan_) {
    history_.emplace_back();
    while (history_.size() > auto_replan_cfg_.history_windows) history_.pop_front();
  }

  // Degradation bookkeeping: the single switch always contributes fully
  // (stalls/watchdog are fleet concepts); fault accounting still reports
  // this window's slice of the injector's cumulative counters.
  current_.contribution_mask = 1;
  if (injector_) {
    const fault::FaultAccount cumulative = injector_->account();
    current_.faults = cumulative - last_account_;
    last_account_ = cumulative;
  }

  current_.window_index = window_counter_++;
  WindowStats out = std::move(current_);
  current_ = WindowStats{};
  return out;
}

void Runtime::enable_mitigation(MitigationPolicy policy) {
  mitigations_.push_back(std::move(policy));
}

void Runtime::enable_auto_replan(AutoReplanConfig cfg) {
  assert(cfg.queries != nullptr);
  auto_replan_cfg_ = std::move(cfg);
  if (auto_replan_cfg_.history_windows == 0) auto_replan_cfg_.history_windows = 1;
  auto_replan_ = true;
  history_.clear();
  history_.emplace_back();
  replans_ctr_ = &obs::Registry::global().counter("sonata_runtime_replans_total");
}

double Runtime::overflow_fraction() const noexcept {
  return total_records_ == 0
             ? 0.0
             : static_cast<double>(total_overflows_) / static_cast<double>(total_records_);
}

}  // namespace sonata::runtime
