#include "runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "obs/journal.h"
#include "runtime/plan_install.h"

namespace sonata::runtime {

using planner::PlannedPipeline;
using planner::PlannedQuery;

Runtime::Runtime(planner::Plan plan, std::size_t batch_size, fault::FaultSpec faults)
    : batch_size_(std::max<std::size_t>(batch_size, 1)), faults_(faults) {
  if (faults.any()) injector_ = std::make_unique<fault::Injector>(faults);
  if (injector_ && faults.wire_active()) wire_ = std::make_unique<WireChannel>(*injector_);
  install_plan(std::move(plan), /*register_pressure=*/true);
}

void Runtime::install_plan(planner::Plan plan, bool register_pressure) {
  // Partial recompile onto a fresh switch: the outgoing program's pipelines
  // go to the shared builder, so unchanged (query, source, level,
  // partition, sizing) entries are reused with their runtime state reset.
  // The match runs while BOTH plans are alive, so node-pointer identity is
  // sound. Register pressure (fault injection) sizes the registers for
  // drifted traffic and/or an adversarial hash seed; a swap (auto-replan or
  // control plane) installs clean — re-planning is the recovery from it.
  PipelineBuildOptions build_opts;
  if (register_pressure) build_opts = {faults_.register_shrink, faults_.hash_seed};
  auto exec = std::make_unique<ShardExec>(plan.switch_config);
  exec->install(plan, build_opts,
                exec_ ? exec_->sw().release_pipelines()
                      : std::vector<std::unique_ptr<pisa::CompiledSwitchQuery>>{});

  // Tear down in dependency order (sp_ holds pointers into plan_), then
  // rebuild. On the initial install this is a plain construction; on a
  // swap it replaces the switch and the stream executors between windows.
  // Mitigation guard entries and dynamic filter winners do not survive the
  // swap — they are rebuilt from the next window's detections.
  sp_.reset();
  exec_ = std::move(exec);
  plan_ = std::move(plan);
  sp_ = std::make_unique<StreamProcessor>(plan_);
}

void Runtime::apply_plan(planner::Plan plan) {
  install_plan(std::move(plan), /*register_pressure=*/false);
  // The fresh switch's drop counter restarts, and the old plan's overflow
  // history says nothing about the new register sizing.
  dropped_before_window_ = 0;
  overflow_streak_ = 0;
  replan_recommended_ = false;
}

bool Runtime::deliver_record(pisa::EmitRecord&& rec) {
  const bool overflow = rec.kind == pisa::EmitRecord::Kind::kOverflow;
  if (!sp_->deliver(std::move(rec))) return false;
  if (overflow) {
    ++current_.overflow_records;
    ++total_overflows_;
  }
  return true;
}

void Runtime::ingest(const net::Packet& packet) {
  ++current_.packets;
  if (auto_replan_) history_.back().push_back(packet);
  if (exec_->stage(packet) >= batch_size_) flush_pending();
}

void Runtime::flush_pending() {
  if (exec_->staged() == 0) return;
  {
    // One timed span and one switch call for the whole staged batch.
    obs::PhaseTimer t{phase_accum_, obs::Phase::kCompute};
    exec_->flush();
  }
  // The batch's records carry its first packet's ingest time; the merge
  // start is their delivery time — one clock read per batch, never per
  // record. Both are metadata only: results are bit-identical with metrics
  // on or off.
  obs::PhaseTimer merge_timer{phase_accum_, obs::Phase::kMerge};
  sp_->begin_delivery(obs::enabled() ? obs::now_ns() : 0);
  const auto deliver = [this](pisa::EmitRecord&& d) { return deliver_record(std::move(d)); };
  for (pisa::EmitRecord& rec : exec_->records()) {
    ++total_records_;
    // Over a faulty wire the record round-trips the report codec, and a
    // dropped overflow report never reaches the SP or its counters.
    if (wire_) {
      wire_->transmit(rec, deliver);
    } else {
      deliver_record(std::move(rec));
    }
  }
  total_records_ += exec_->raw_sources().size();
  if (!exec_->raw_sources().empty()) sp_->deliver_raw_batch(exec_->raw_sources());
  // tuples_to_sp stays switch-side accounting: what the switch *sent*,
  // not what survived a faulty wire.
  current_.tuples_to_sp += exec_->tuples_to_sp();
  current_.raw_mirror_packets += exec_->raw_mirror_packets();
  exec_->clear();
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
  if (wire_) wire_->flush([this](pisa::EmitRecord&& d) { return deliver_record(std::move(d)); });

  // 1. Poll switch registers for stateful tails (control channel).
  {
    obs::PhaseTimer t{phase_accum_, obs::Phase::kPoll};
    sp_->poll_switch(exec_->sw());
  }

  obs::PhaseTimer close_timer{phase_accum_, obs::Phase::kClose};

  // 2. The shared close with no shard to deliver (records reached the SP
  //    as they were emitted), tasks inline: levels close coarse-to-fine;
  //    winners install into the next level's dynamic filter tables (they
  //    take effect for the next window).
  pisa::Switch& sw = exec_->sw();
  const double control_before = sw.stats().control_update_millis;
  pisa::Switch* const switches[] = {&sw};
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
        if (sw.blocked_keys() >= policy.max_entries) break;
        sw.block(policy.packet_field, t.at(*col));
      }
    }
  }

  // 4. Reset registers for the next window.
  sw.reset_all_registers();
  close_timer.stop();
  current_.control_update_millis = sw.stats().control_update_millis - control_before;
  current_.dropped_packets = sw.stats().dropped_packets - dropped_before_window_;
  dropped_before_window_ = sw.stats().dropped_packets;
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
