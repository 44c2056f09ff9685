// Sonata's single-switch runtime (paper Figure 6): drives one PISA switch
// and the shared stream processor through the window loop, and performs
// dynamic refinement between windows.
//
// Per window:
//   1. every packet runs through the installed switch pipelines; mirrored
//      records go through the emitter to the per-(query, level) stream
//      executors (plus a shared raw mirror for pipelines kept entirely at
//      the stream processor);
//   2. at window end the runtime polls the switch registers (control
//      channel), closes each level's stream executor coarse-to-fine, and
//      installs each level's winner keys into the next level's dynamic
//      filter tables — on the switch and on the stream processor side;
//   3. registers are reset; the finest level's outputs are the window's
//      detections.
//
// The control-plane state (executors, source remapping, winner
// installation) lives in the shared runtime::StreamProcessor; the Runtime
// only owns the switch, the window loop, and the single-switch policies
// (closed-loop mitigation, re-planning trigger).
//
// Tuple accounting matches the paper's evaluation: N counts packets the
// switch sends toward the stream processor (streamed tuples, per-key
// reports, collision overflows, and the shared raw mirror), not the
// register polls on the control channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "runtime/engine.h"
#include "runtime/shard_exec.h"
#include "runtime/stream_processor.h"
#include "runtime/wire_channel.h"

namespace sonata::runtime {

class Runtime final : public TelemetryEngine {
 public:
  // Takes ownership of a copy of the plan; the *base queries* the plan
  // references must outlive the Runtime. `batch_size` is the data-path
  // handoff granularity (DESIGN.md "Data-path memory model"): ingested
  // packets are parsed immediately but run through the switch pipelines
  // `batch_size` at a time into a reusable emit arena; batch 1 runs the
  // batched path one packet at a time. Every value produces bit-identical
  // windows.
  //
  // `faults` configures deterministic fault injection (DESIGN.md "Fault
  // model & degradation"): wire faults round-trip every mirrored record
  // through the report codec, register pressure shrinks/reseeds the
  // installed chains. Worker stalls and the watchdog are fleet-only and
  // inert here (the single-switch runtime has no worker to stall).
  explicit Runtime(planner::Plan plan, std::size_t batch_size = 1,
                   fault::FaultSpec faults = {});

  // Streaming interface (TelemetryEngine).
  void ingest(const net::Packet& packet) override;

  [[nodiscard]] const planner::Plan& plan() const noexcept override { return plan_; }
  [[nodiscard]] std::size_t data_plane_count() const noexcept override { return 1; }
  [[nodiscard]] const pisa::Switch& data_plane(std::size_t) const override { return exec_->sw(); }
  [[nodiscard]] const pisa::Switch& data_plane() const noexcept { return exec_->sw(); }
  [[nodiscard]] const Emitter& emitter() const noexcept override { return sp_->emitter(); }

  // Fraction of mirrored records caused by register-chain overflow since
  // start; the paper's runtime triggers re-planning when this spikes.
  [[nodiscard]] double overflow_fraction() const noexcept;

  // -- closed-loop mitigation (paper Section 8's long-term goal) -------
  // When enabled, every finest-level detection of `qid` installs a drop
  // rule on the switch: packets whose `packet_field` equals the detection's
  // `output_column` value are dropped from the next window on.
  struct MitigationPolicy {
    query::QueryId qid = 0;
    std::string output_column;       // detection column carrying the key
    std::string packet_field;        // packet field to block on (e.g. "dIP")
    std::size_t max_entries = 1024;  // guard-table budget
  };
  void enable_mitigation(MitigationPolicy policy);

  // -- re-planning trigger (paper §5) ----------------------------------
  // "When it detects too many hash collisions, the runtime triggers the
  // query planner to re-run the ILP with the new data." The runtime tracks
  // the per-window collision-overflow fraction; when it exceeds
  // `overflow_threshold` for `consecutive_windows` windows, the traffic has
  // drifted past the training data's key-count estimates and the caller
  // should re-plan on recent windows (see RuntimeReplan tests).
  struct ReplanPolicy {
    double overflow_threshold = 0.01;  // overflow records per packet seen
    int consecutive_windows = 2;
  };
  void set_replan_policy(ReplanPolicy policy) noexcept { replan_policy_ = policy; }
  [[nodiscard]] bool replan_recommended() const noexcept { return replan_recommended_; }

  // -- acted-on re-planning (paper §5, closing the loop) ---------------
  // When enabled, a fired replan recommendation is consumed automatically:
  // the planner re-runs against the last `history_windows` windows of live
  // traffic (so its key-count estimates reflect the drifted traffic, not
  // the stale training trace) and the new plan is hot-swapped between
  // windows. The swap rebuilds the switch program and the stream-processor
  // executors; installed mitigation guard entries are rebuilt from the next
  // window's detections (the drop rules themselves do not survive the
  // reinstall — a documented cost of the swap). Register-pressure faults
  // (shrink/hash_seed) are deliberately NOT re-applied to the new plan:
  // re-planning is the recovery from them.
  struct AutoReplanConfig {
    const std::vector<query::Query>* queries = nullptr;  // must outlive the Runtime
    planner::PlannerConfig planner;
    std::size_t history_windows = 2;  // ingest history kept for re-training
  };
  void enable_auto_replan(AutoReplanConfig cfg);
  [[nodiscard]] std::uint64_t replans_performed() const noexcept { return replans_; }

 protected:
  WindowStats do_close_window() override;
  // Control-plane swap at the window barrier: reinstall the switch program
  // (unchanged compiled pipelines are reused) and rebuild the stream
  // executors. Register-pressure faults are not re-applied — a swap
  // installs clean, like an auto-replan.
  void apply_plan(planner::Plan plan) override;

 private:
  // Run the staged packets through the switch pipelines and hand the
  // resulting records (and the raw mirror) to the stream processor.
  void flush_pending();
  // Deliver one record (off the switch, or off the faulty wire) to the
  // stream processor; overflow counts only records the SP accepted: a
  // corrupted header its routing boundary rejects never reached its
  // counters either. Returns whether the record routed.
  bool deliver_record(pisa::EmitRecord&& rec);
  // (Re)build the switch program and stream processor for `plan`.
  // `register_pressure` applies the fault spec's shrink/hash_seed (true for
  // the initial install, false for auto-replan swaps — re-planning is the
  // recovery from register pressure).
  void install_plan(planner::Plan plan, bool register_pressure);

  planner::Plan plan_;
  // unique_ptrs (not values) so an auto-replan swap can rebuild both; sp_
  // holds pointers into plan_, so destruction order is exec_/sp_ first.
  std::unique_ptr<ShardExec> exec_;  // the switch and its data path
  std::unique_ptr<StreamProcessor> sp_;
  std::size_t batch_size_ = 1;
  fault::FaultSpec faults_;

  // Fault injection (null when no spec is configured).
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<WireChannel> wire_;
  fault::FaultAccount last_account_;

  std::vector<MitigationPolicy> mitigations_;
  ReplanPolicy replan_policy_;
  int overflow_streak_ = 0;
  bool replan_recommended_ = false;

  // Auto-replan state: per-window ingest history (newest last), kept only
  // while enabled.
  bool auto_replan_ = false;
  AutoReplanConfig auto_replan_cfg_;
  std::deque<std::vector<net::Packet>> history_;
  std::uint64_t replans_ = 0;
  obs::Counter* replans_ctr_ = nullptr;

  WindowStats current_;
  obs::PhaseAccum phase_accum_;  // this window's phase clock (driver thread)
  std::uint64_t window_counter_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_overflows_ = 0;
  std::uint64_t dropped_before_window_ = 0;
};

}  // namespace sonata::runtime
