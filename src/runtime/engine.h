// The unified driver interface.
//
// Every execution driver — the single-switch `Runtime` and the serial or
// parallel `Fleet` it specializes — is a TelemetryEngine: packets go in via
// ingest(), windows close via close_window(), and run_trace() provides the
// shared trace-replay window loop. Tools, examples, benchmarks and tests
// program against this interface.
//
// Engines are built with EngineBuilder, which owns the whole setup story:
// topology, batching, fault injection, training traffic, tenants, and the
// initially admitted queries. The builder hands the admitted queries to
// the engine's ControlPlane, so query lifetime is the engine's problem —
// callers no longer keep a "base query" vector alive on the side.
//
// Admitted queries are dynamic: submit() and withdraw() stage control-plane
// mutations that take effect at the next window boundary (close_window
// swaps in a freshly versioned plan there — never mid-window, so every
// window is bit-exact under exactly one plan version). Admission can fail:
// per-tenant switch budgets make rejection real, and the structured
// AdmissionDiagnostic says which constraint bound and what budget would
// have admitted the query.
//
// The window-end policies live here too, after the driver's close:
// closed-loop mitigation installs drop rules on every switch, the
// re-planning trigger watches the collision-overflow fraction, and an
// auto-replan swaps its plan in through apply_plan, the same swap a
// control-plane mutation takes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "fault/fault.h"
#include "net/packet.h"
#include "planner/incremental.h"
#include "planner/planner.h"
#include "runtime/stream_processor.h"
#include "util/expected.h"

namespace sonata::runtime {

class ControlPlane;

// Handle for a dynamically admitted query (engine-scoped).
using QueryHandle = planner::AdmitId;

class TelemetryEngine {
 public:
  TelemetryEngine();  // out-of-line: ControlPlane is incomplete here
  virtual ~TelemetryEngine();

  // Ingest one packet into the current window (routing to a data plane is
  // driver-specific).
  virtual void ingest(const net::Packet& packet) = 0;

  // Close the current window: poll registers, merge at the stream
  // processor, refine, reset — then apply any pending control-plane
  // submissions/withdrawals by swapping in a new plan version (the window
  // barrier is the only point a plan changes). Returns the window's
  // aggregated stats; stats.plan_version is the version that processed the
  // window, stats.plan_swapped reports a swap happened after it.
  WindowStats close_window();

  // -- dynamic query control plane --------------------------------------
  // Stage a query submission/withdrawal; it takes effect at the next
  // close_window(). Engines built without a control plane (directly
  // constructed Runtime/Fleet) reject with kNoControlPlane.
  [[nodiscard]] util::Expected<QueryHandle, planner::AdmissionDiagnostic> submit(
      query::Query q, std::string_view tenant = {});
  [[nodiscard]] util::Expected<util::Ok, planner::AdmissionDiagnostic> withdraw(QueryHandle h);
  [[nodiscard]] ControlPlane* control_plane() noexcept { return control_.get(); }
  [[nodiscard]] const ControlPlane* control_plane() const noexcept { return control_.get(); }

  // -- stats accessors --------------------------------------------------
  [[nodiscard]] virtual const planner::Plan& plan() const noexcept = 0;
  [[nodiscard]] virtual std::size_t data_plane_count() const noexcept = 0;
  [[nodiscard]] virtual const pisa::Switch& data_plane(std::size_t i) const = 0;
  [[nodiscard]] virtual const Emitter& emitter() const noexcept = 0;

  // Batch interface: process one window's packets and close the window.
  WindowStats process_window(std::span<const net::Packet> packets);

  // Replay a whole trace, splitting it into windows by the plan's window
  // size. Returns per-window stats.
  std::vector<WindowStats> run_trace(std::span<const net::Packet> trace);

  // Fraction of the switches' mirrored records caused by register-chain
  // overflow since start; the paper's runtime triggers re-planning when
  // this spikes.
  [[nodiscard]] double overflow_fraction() const noexcept;

  // -- closed-loop mitigation (paper Section 8's long-term goal) -------
  // When enabled, every finest-level detection of `qid` installs a drop
  // rule: packets whose `packet_field` equals the detection's
  // `output_column` value are dropped from the next window on. The engine
  // keeps each policy's blocked keys, and each window close brings every
  // contributing switch up to them, so a quarantined switch catches up at
  // its next close. The installs count toward the window's
  // control_update_millis. Drop rules survive plan swaps.
  struct MitigationPolicy {
    query::QueryId qid = 0;
    std::string output_column;       // detection column carrying the key
    std::string packet_field;        // packet field to block on (e.g. "dIP")
    std::size_t max_entries = 1024;  // the policy's guard-table budget, per switch
  };
  void enable_mitigation(MitigationPolicy policy);

  // -- re-planning trigger (paper §5) ----------------------------------
  // "When it detects too many hash collisions, the runtime triggers the
  // query planner to re-run the ILP with the new data." The engine tracks
  // the per-window collision-overflow fraction; when it exceeds
  // `overflow_threshold` for `consecutive_windows` windows, the traffic has
  // drifted past the training data's key-count estimates and the caller
  // should re-plan on recent windows (see Replan tests).
  struct ReplanPolicy {
    double overflow_threshold = 0.01;  // overflow records per packet processed
    int consecutive_windows = 2;
  };
  void set_replan_policy(ReplanPolicy policy) noexcept { replan_policy_ = policy; }
  [[nodiscard]] bool replan_recommended() const noexcept { return replan_recommended_; }

  // -- acted-on re-planning (paper §5, closing the loop) ---------------
  // When enabled, a fired replan recommendation is consumed automatically:
  // the planner re-runs against the last `history_windows` windows of live
  // traffic (so its key-count estimates reflect the drifted traffic, not
  // the stale training trace) and the new plan is swapped in through
  // apply_plan between windows. The history is the packets of the windows
  // replayed through process_window() or run_trace(). Register-pressure
  // faults (shrink/hash_seed) are deliberately NOT re-applied to the new
  // plan: re-planning is the recovery from them.
  struct AutoReplanConfig {
    const std::vector<query::Query>* queries = nullptr;  // must outlive the engine
    planner::PlannerConfig planner;
    std::size_t history_windows = 2;  // ingest history kept for re-training
  };
  void enable_auto_replan(AutoReplanConfig cfg);
  [[nodiscard]] std::uint64_t replans_performed() const noexcept { return replans_; }

 protected:
  // Driver-specific window close: the data planes' barrier, polls, the
  // stream processor's close and the register resets.
  virtual WindowStats do_close_window() = 0;
  // Swap `plan` in at a window barrier: rebuild the switch program(s) —
  // reusing unchanged compiled pipelines — and the stream executors.
  // Register-pressure faults are not re-applied; a swap installs clean.
  virtual void apply_plan(planner::Plan plan) = 0;
  // The switch behind data_plane(i), for the window-end policies. They
  // touch it only between do_close_window and the next ingest, and only
  // when it is not quarantined: a quarantined switch's worker owns it until
  // its resync. (A switch whose frame the wire lost is not quarantined.)
  [[nodiscard]] virtual pisa::Switch& mutable_data_plane(std::size_t i) = 0;
  [[nodiscard]] virtual bool data_plane_quarantined(std::size_t i) const noexcept = 0;

 private:
  friend class EngineBuilder;
  // Add this window's detections to the blocked keys, and block every
  // blocked key on every contributing switch.
  void mitigate(WindowStats& w);
  // Advance the overflow streak over `w`; fires the recommendation.
  void watch_overflow(const WindowStats& w);
  // Re-plan on the retained history and swap the plan in.
  void replan(WindowStats& w);
  // apply_plan, then restart the overflow streak: the old plan's overflow
  // history says nothing about the new register sizing.
  void swap_plan(planner::Plan plan);

  std::unique_ptr<ControlPlane> control_;

  struct Mitigation {
    MitigationPolicy policy;
    std::unordered_set<query::Value, query::ValueHasher> keys;  // at most policy.max_entries
  };
  std::vector<Mitigation> mitigations_;
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
};

// Builds a TelemetryEngine: a Fleet of `switches` shards on
// `worker_threads` workers for every topology ({1, 0} is the single-switch
// Runtime's shape).
//
//   auto engine = runtime::EngineBuilder()
//                     .topology(4, 2)
//                     .faults(spec)
//                     .training(trace)
//                     .tenant("ops", {.stage_tables = 8, .register_bits = 1 << 20})
//                     .admit(queries::full_catalog(th, w))
//                     .admit(extra_query, "ops")
//                     .build();
//
// build() plans the admitted set over the training traffic and returns the
// engine, or the AdmissionDiagnostic of the first rejected query. The
// engine owns the admitted queries (storage lives in its ControlPlane).
class EngineBuilder {
 public:
  EngineBuilder();
  ~EngineBuilder();
  EngineBuilder(EngineBuilder&&) noexcept;
  EngineBuilder& operator=(EngineBuilder&&) noexcept;

  EngineBuilder& topology(std::size_t switches, std::size_t worker_threads = 0);
  // Data-path handoff granularity (DESIGN.md "Data-path memory model");
  // bit-identical output for every value; batch 1 runs the batched path one
  // packet at a time.
  EngineBuilder& batch(std::size_t batch_size);
  // Deterministic fault injection (DESIGN.md "Fault model & degradation").
  EngineBuilder& faults(fault::FaultSpec spec);
  // Pin fleet workers to cores (round-robin over the process's allowed
  // set); no effect with 0 worker threads.
  EngineBuilder& pin_workers(bool pin);
  EngineBuilder& planner(planner::PlannerConfig cfg);
  // Training traffic for the planner's cost estimators (required).
  EngineBuilder& training(std::span<const net::Packet> packets);
  // Define a tenant budget (may be referenced by later admit calls).
  EngineBuilder& tenant(std::string_view name, planner::TenantBudget budget);
  // Queries to admit at build time ("" = the unlimited default tenant).
  EngineBuilder& admit(query::Query q, std::string_view tenant = {});
  EngineBuilder& admit(std::vector<query::Query> queries, std::string_view tenant = {});

  // Plan, build the driver, attach the control plane. Fails with the first
  // rejected submission's diagnostic (or kValidation when no training
  // traffic was provided).
  [[nodiscard]] util::Expected<std::unique_ptr<TelemetryEngine>, planner::AdmissionDiagnostic>
  build();

  // Plan without building a driver — the distributed deployment's entry
  // point, where every role (switch node, collector) derives the identical
  // plan from the same seed/queries/training traffic and then deploys only
  // its half. The returned ControlPlane owns the admitted queries' storage
  // and must outlive every use of the plan.
  struct PlannedSetup {
    std::unique_ptr<ControlPlane> control;
    planner::Plan plan;
  };
  [[nodiscard]] util::Expected<PlannedSetup, planner::AdmissionDiagnostic> plan_only();

 private:
  struct Pending {
    query::Query q;
    std::string tenant;
  };
  std::size_t switches_ = 1;
  std::size_t worker_threads_ = 0;
  std::size_t batch_size_ = 256;
  bool pin_workers_ = false;
  fault::FaultSpec faults_;
  planner::PlannerConfig planner_;
  std::vector<planner::TupleWindow> windows_;
  bool have_training_ = false;
  std::vector<std::pair<std::string, planner::TenantBudget>> tenants_;
  std::vector<Pending> pending_;
};

}  // namespace sonata::runtime
