#include "runtime/engine.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "runtime/control_plane.h"
#include "runtime/fleet.h"
#include "runtime/limits.h"
#include "trace/trace.h"
#include "util/log.h"
#include "util/time.h"

namespace sonata::runtime {

namespace {

// Registry-side window accounting, shared by every driver. Handles are
// resolved lazily once; the adds are self-gated on obs::enabled.
void publish_window_obs(const WindowStats& w) {
  static obs::Counter& windows = obs::Registry::global().counter("sonata_windows_total");
  static obs::Counter& partial = obs::Registry::global().counter("sonata_windows_partial_total");
  static obs::Counter* phase_nanos[obs::kPhaseCount] = {};
  if (phase_nanos[0] == nullptr) {
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      const std::pair<std::string_view, std::string> labels[] = {
          {"phase", obs::phase_name(static_cast<obs::Phase>(i))}};
      phase_nanos[i] =
          &obs::Registry::global().counter(obs::labeled("sonata_window_phase_nanos_total", labels));
    }
  }
  windows.add(1);
  if (w.partial) partial.add(1);
  phase_nanos[static_cast<int>(obs::Phase::kIngest)]->add(w.phases.ingest_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kCompute)]->add(w.phases.compute_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kMerge)]->add(w.phases.merge_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kPoll)]->add(w.phases.poll_nanos);
  phase_nanos[static_cast<int>(obs::Phase::kClose)]->add(w.phases.close_nanos);
}

planner::AdmissionDiagnostic no_control_plane() {
  planner::AdmissionDiagnostic d;
  d.code = planner::AdmissionDiagnostic::Code::kNoControlPlane;
  d.message =
      "engine was built without a control plane; use EngineBuilder for dynamic "
      "query admission";
  return d;
}

}  // namespace

TelemetryEngine::TelemetryEngine() = default;
TelemetryEngine::~TelemetryEngine() = default;

WindowStats TelemetryEngine::close_window() {
  WindowStats w = do_close_window();
  w.plan_version = plan().version;
  // The window-end policies, on this window's results and before any swap.
  if (!mitigations_.empty()) mitigate(w);
  watch_overflow(w);
  if (replan_recommended_ && auto_replan_) replan(w);
  if (auto_replan_) {
    history_.emplace_back();
    while (history_.size() > auto_replan_cfg_.history_windows) history_.pop_front();
  }
  if (control_ != nullptr && control_->dirty()) {
    // Apply pending submissions/withdrawals at the barrier: the plan is a
    // versioned object, and the swap lands between windows so window N is
    // entirely version V and window N+1 entirely V+1.
    planner::Plan next = control_->take_snapshot();
    SONATA_INFO("engine", "control-plane swap after window %llu: %zu queries, plan v%llu",
                static_cast<unsigned long long>(w.window_index), next.queries.size(),
                static_cast<unsigned long long>(next.version));
    swap_plan(std::move(next));
    control_->free_retired();
    w.plan_swapped = true;
    obs::Journal::global().emit(obs::EventType::kPlanSwap, w.window_index, 0, 0,
                                static_cast<std::int64_t>(plan().version),
                                static_cast<std::int64_t>(plan().queries.size()), 0,
                                "control-plane swap");
  }
  return w;
}

void TelemetryEngine::mitigate(WindowStats& w) {
  // Each policy's detections: its query's finest-level output column.
  for (Mitigation& m : mitigations_) {
    for (const planner::PlannedQuery& pq : plan().queries) {
      if (pq.base->id() != m.policy.qid) continue;
      const auto& schema = pq.exec_queries.at(pq.chain.back()).root()->output_schema();
      const auto col = schema.index_of(m.policy.output_column);
      if (!col) continue;
      for (const QueryResult& result : w.results) {
        if (result.qid != m.policy.qid) continue;
        for (const query::Tuple& t : result.outputs) {
          if (m.keys.size() >= m.policy.max_entries) break;
          m.keys.insert(t.at(*col));
        }
      }
    }
  }
  // Every switch but a quarantined one holds every blocked key
  // (Switch::block is idempotent); a quarantined one catches up at its next
  // close. The switches update in parallel, so the window's control
  // latency grows by the busiest switch's installs.
  std::uint64_t most = 0;
  for (std::size_t i = 0; i < data_plane_count(); ++i) {
    if (data_plane_quarantined(i)) continue;
    pisa::Switch& sw = mutable_data_plane(i);
    const std::uint64_t before = sw.stats().filter_entry_updates;
    for (const Mitigation& m : mitigations_) {
      for (const query::Value& key : m.keys) sw.block(m.policy.packet_field, key);
    }
    most = std::max(most, sw.stats().filter_entry_updates - before);
  }
  w.control_update_millis += pisa::Switch::kMillisPerEntryUpdate * static_cast<double>(most);
}

void TelemetryEngine::watch_overflow(const WindowStats& w) {
  // Sustained collision overflow means the registers were sized for
  // different traffic (paper §5). The fraction is over *processed*
  // packets: mitigation-dropped packets never reach the registers, so
  // counting them in the denominator deflated the fraction exactly when a
  // drop storm coincided with register pressure — the moment the trigger
  // matters most.
  const std::uint64_t processed = w.packets - std::min(w.dropped_packets, w.packets);
  const double fraction = processed == 0 ? 0.0
                                         : static_cast<double>(w.overflow_records) /
                                               static_cast<double>(processed);
  overflow_streak_ = fraction > replan_policy_.overflow_threshold ? overflow_streak_ + 1 : 0;
  if (overflow_streak_ >= replan_policy_.consecutive_windows && !replan_recommended_) {
    replan_recommended_ = true;
    obs::Journal::global().emit(obs::EventType::kReplanTriggered, w.window_index, 0, 0,
                                static_cast<std::int64_t>(w.overflow_records), overflow_streak_,
                                0, "overflow streak");
  }
}

void TelemetryEngine::replan(WindowStats& w) {
  // Consume the recommendation: re-run the planner against the retained
  // live windows, whose key counts reflect the drifted traffic.
  std::vector<net::Packet> training;
  std::size_t total = 0;
  for (const auto& window : history_) total += window.size();
  if (total == 0) {
    SONATA_WARN("engine", "auto-replan after window %llu has no retained traffic: only "
                "process_window and run_trace windows are kept",
                static_cast<unsigned long long>(w.window_index));
    return;
  }
  training.reserve(total);
  for (const auto& window : history_) {
    training.insert(training.end(), window.begin(), window.end());
  }
  planner::Planner planner(auto_replan_cfg_.planner);
  swap_plan(planner.plan(*auto_replan_cfg_.queries, training));
  ++replans_;
  replans_ctr_->add(1);
  w.plan_swapped = true;
  obs::Journal::global().emit(obs::EventType::kReplanApplied, w.window_index, 0, 0,
                              static_cast<std::int64_t>(replans_),
                              static_cast<std::int64_t>(training.size()), 0, "auto-replan");
}

void TelemetryEngine::swap_plan(planner::Plan plan) {
  apply_plan(std::move(plan));
  overflow_streak_ = 0;
  replan_recommended_ = false;
}

void TelemetryEngine::enable_mitigation(MitigationPolicy policy) {
  mitigations_.push_back({std::move(policy), {}});
}

void TelemetryEngine::enable_auto_replan(AutoReplanConfig cfg) {
  assert(cfg.queries != nullptr);
  auto_replan_cfg_ = std::move(cfg);
  if (auto_replan_cfg_.history_windows == 0) auto_replan_cfg_.history_windows = 1;
  auto_replan_ = true;
  history_.clear();
  history_.emplace_back();
  replans_ctr_ = &obs::Registry::global().counter("sonata_runtime_replans_total");
}

double TelemetryEngine::overflow_fraction() const noexcept {
  std::uint64_t records = 0, overflows = 0;
  for (std::size_t i = 0; i < data_plane_count(); ++i) {
    records += data_plane(i).stats().records_emitted;
    overflows += data_plane(i).stats().overflow_records;
  }
  return records == 0 ? 0.0 : static_cast<double>(overflows) / static_cast<double>(records);
}

util::Expected<QueryHandle, planner::AdmissionDiagnostic> TelemetryEngine::submit(
    query::Query q, std::string_view tenant) {
  if (control_ == nullptr) return no_control_plane();
  return control_->submit(std::move(q), tenant);
}

util::Expected<util::Ok, planner::AdmissionDiagnostic> TelemetryEngine::withdraw(QueryHandle h) {
  if (control_ == nullptr) return no_control_plane();
  return control_->withdraw(h);
}

WindowStats TelemetryEngine::process_window(std::span<const net::Packet> packets) {
  const bool tracing = obs::TraceRecorder::global().enabled();
  const std::uint64_t start = tracing ? obs::now_ns() : 0;
  if (auto_replan_) history_.back().insert(history_.back().end(), packets.begin(), packets.end());
  for (const auto& p : packets) ingest(p);
  WindowStats w = close_window();
  if (tracing) {
    obs::TraceRecorder::global().record("window", "window", start, obs::now_ns() - start);
  }
  std::size_t detections_for_journal = 0;
  for (const auto& r : w.results) detections_for_journal += r.outputs.size();
  if (obs::enabled()) {
    publish_window_obs(w);
    obs::Journal& journal = obs::Journal::global();
    journal.emit(obs::EventType::kWindowSummary, w.window_index, 0, 0,
                 static_cast<std::int64_t>(w.packets),
                 static_cast<std::int64_t>(w.tuples_to_sp),
                 static_cast<std::int64_t>(detections_for_journal),
                 w.partial ? "partial" : "");
    if (w.faults.total() > 0) {
      journal.emit(obs::EventType::kFaultBurst, w.window_index, 0, 0,
                   static_cast<std::int64_t>(w.faults.total()),
                   static_cast<std::int64_t>(w.late_packets),
                   static_cast<std::int64_t>(w.shed_packets));
    }
    // Keep the crash flight recorder's metrics page current: one snapshot
    // serialization per window, on the driver thread, only when a handler
    // is armed.
    if (obs::crash_handler_installed()) {
      obs::crash_store_metrics(obs::Registry::global().snapshot().to_json());
    }
  }
  if (w.partial) {
    SONATA_WARN("engine",
                "window %llu closed PARTIAL: contribution_mask=0x%llx late=%llu shed=%llu",
                static_cast<unsigned long long>(w.window_index),
                static_cast<unsigned long long>(w.contribution_mask),
                static_cast<unsigned long long>(w.late_packets),
                static_cast<unsigned long long>(w.shed_packets));
  }
  std::size_t detections = 0;
  for (const auto& r : w.results) detections += r.outputs.size();
  SONATA_INFO("engine",
              "window %llu: packets=%llu tuples_to_sp=%llu (raw %llu) overflows=%llu "
              "detections=%zu phases[ms] ingest=%.3f compute=%.3f merge=%.3f poll=%.3f "
              "close=%.3f total=%.3f ctrl=%.1f",
              static_cast<unsigned long long>(w.window_index),
              static_cast<unsigned long long>(w.packets),
              static_cast<unsigned long long>(w.tuples_to_sp),
              static_cast<unsigned long long>(w.raw_mirror_packets),
              static_cast<unsigned long long>(w.overflow_records), detections,
              w.phases.ingest_millis(), w.phases.compute_millis(), w.phases.merge_millis(),
              w.phases.poll_millis(), w.phases.close_millis(), w.phases.total_millis(),
              w.control_update_millis);
  return w;
}

std::vector<WindowStats> TelemetryEngine::run_trace(std::span<const net::Packet> trace) {
  std::vector<WindowStats> out;
  for (const auto window : trace::split_windows(trace, plan().window)) {
    out.push_back(process_window(window));
  }
  return out;
}

// -- EngineBuilder ------------------------------------------------------

EngineBuilder::EngineBuilder() = default;
EngineBuilder::~EngineBuilder() = default;
EngineBuilder::EngineBuilder(EngineBuilder&&) noexcept = default;
EngineBuilder& EngineBuilder::operator=(EngineBuilder&&) noexcept = default;

EngineBuilder& EngineBuilder::topology(std::size_t switches, std::size_t worker_threads) {
  switches_ = std::max<std::size_t>(switches, 1);
  worker_threads_ = worker_threads;
  return *this;
}

EngineBuilder& EngineBuilder::batch(std::size_t batch_size) {
  batch_size_ = std::max<std::size_t>(batch_size, 1);
  return *this;
}

EngineBuilder& EngineBuilder::faults(fault::FaultSpec spec) {
  faults_ = spec;
  return *this;
}

EngineBuilder& EngineBuilder::pin_workers(bool pin) {
  pin_workers_ = pin;
  return *this;
}

EngineBuilder& EngineBuilder::planner(planner::PlannerConfig cfg) {
  planner_ = std::move(cfg);
  return *this;
}

EngineBuilder& EngineBuilder::training(std::span<const net::Packet> packets) {
  windows_ = planner::materialize_windows(packets, planner_.window);
  have_training_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::tenant(std::string_view name, planner::TenantBudget budget) {
  tenants_.emplace_back(std::string(name), budget);
  return *this;
}

EngineBuilder& EngineBuilder::admit(query::Query q, std::string_view tenant) {
  pending_.push_back({std::move(q), std::string(tenant)});
  return *this;
}

EngineBuilder& EngineBuilder::admit(std::vector<query::Query> queries, std::string_view tenant) {
  for (auto& q : queries) pending_.push_back({std::move(q), std::string(tenant)});
  return *this;
}

util::Expected<EngineBuilder::PlannedSetup, planner::AdmissionDiagnostic>
EngineBuilder::plan_only() {
  if (!have_training_) {
    planner::AdmissionDiagnostic d;
    d.code = planner::AdmissionDiagnostic::Code::kValidation;
    d.message = "no training traffic: call training() before build()";
    return d;
  }
  auto control = std::make_unique<ControlPlane>(planner_, std::move(windows_));
  have_training_ = false;
  for (const auto& [name, budget] : tenants_) control->define_tenant(name, budget);
  // One batch: every query's estimators are built together, then the
  // queries are placed in submission order.
  std::vector<ControlPlane::Submission> batch;
  batch.reserve(pending_.size());
  for (auto& p : pending_) batch.push_back({std::move(p.q), std::move(p.tenant)});
  pending_.clear();
  auto admitted = control->submit(std::move(batch));
  if (!admitted) return admitted.error();
  PlannedSetup setup;
  setup.plan = control->take_snapshot();
  setup.control = std::move(control);
  return setup;
}

util::Expected<std::unique_ptr<TelemetryEngine>, planner::AdmissionDiagnostic>
EngineBuilder::build() {
  if (std::string err = switch_count_error(switches_); !err.empty()) {
    planner::AdmissionDiagnostic d;
    d.code = planner::AdmissionDiagnostic::Code::kTopology;
    d.message = std::move(err);
    d.constraint = "switches";
    d.budget = kMaxSwitches;
    d.required = switches_;
    return d;
  }
  auto planned = plan_only();
  if (!planned) return planned.error();
  auto control = std::move(planned->control);
  planner::Plan plan = std::move(planned->plan);
  std::unique_ptr<TelemetryEngine> engine = std::make_unique<Fleet>(
      std::move(plan), switches_, worker_threads_, batch_size_, faults_, pin_workers_);
  engine->control_ = std::move(control);
  return engine;
}

}  // namespace sonata::runtime
