#include "runtime/control_plane.h"

#include <iterator>
#include <utility>

#include "obs/journal.h"

namespace sonata::runtime {

using planner::AdmissionDiagnostic;

ControlPlane::ControlPlane(planner::PlannerConfig cfg,
                           std::vector<planner::TupleWindow> training)
    : planner_(std::move(cfg), std::move(training)) {
  auto& reg = obs::Registry::global();
  accepted_ctr_ = &reg.counter("sonata_admission_accepted_total");
  rejected_ctr_ = &reg.counter("sonata_admission_rejected_total");
  withdrawn_ctr_ = &reg.counter("sonata_admission_withdrawn_total");
}

void ControlPlane::define_tenant(std::string_view name, planner::TenantBudget budget) {
  planner_.define_tenant(name, budget);
  publish_tenant_gauges(name);
}

void ControlPlane::publish_tenant_gauges(std::string_view tenant) {
  if (!obs::enabled()) return;
  const planner::TenantUsage usage = planner_.tenant_usage(tenant);
  const std::pair<std::string_view, std::string> labels[] = {
      {"tenant", std::string(tenant.empty() ? std::string_view{"default"} : tenant)}};
  auto& reg = obs::Registry::global();
  reg.gauge(obs::labeled("sonata_tenant_stage_tables", labels))
      .set(static_cast<std::int64_t>(usage.stage_tables));
  reg.gauge(obs::labeled("sonata_tenant_register_bits", labels))
      .set(static_cast<std::int64_t>(usage.register_bits));
  reg.gauge(obs::labeled("sonata_tenant_queries", labels))
      .set(static_cast<std::int64_t>(usage.queries));
}

std::optional<AdmissionDiagnostic> ControlPlane::invalid(query::Query& q,
                                                       std::string_view tenant) {
  std::string message;
  if (q.root() == nullptr) {
    message = "query \"" + q.name() + "\" has no operator tree";
  } else if (const std::string err = q.validate(); !err.empty()) {
    // Idempotent for already-validated queries; a DSL front-end hands us
    // validated ones, but programmatic callers may not have bothered.
    message = "query \"" + q.name() + "\": " + err;
  } else {
    return std::nullopt;
  }
  AdmissionDiagnostic d;
  d.code = AdmissionDiagnostic::Code::kValidation;
  d.tenant = std::string(tenant);
  d.message = std::move(message);
  return d;
}

void ControlPlane::count_rejection(const AdmissionDiagnostic& d, const std::string& name) {
  rejected_ctr_->add(1);
  // Admissions have no window context; window_id 0 marks control-plane
  // events that land between windows.
  obs::Journal::global().emit(obs::EventType::kAdmissionRejected, 0, 0, 0,
                              static_cast<std::int64_t>(d.code), 0, 0, name);
}

util::Expected<planner::AdmitId, AdmissionDiagnostic> ControlPlane::submit(
    query::Query q, std::string_view tenant) {
  std::vector<Submission> one;
  one.push_back({std::move(q), std::string(tenant)});
  auto admitted = submit(std::move(one));
  if (!admitted) return admitted.error();
  return admitted->front();
}

util::Expected<std::vector<planner::AdmitId>, AdmissionDiagnostic> ControlPlane::submit(
    std::vector<Submission> batch) {
  // The planner takes the queries before the first invalid one.
  std::optional<AdmissionDiagnostic> invalid_at;
  std::size_t valid = 0;
  for (; valid < batch.size(); ++valid) {
    if ((invalid_at = invalid(batch[valid].q, batch[valid].tenant))) break;
  }
  std::vector<std::list<query::Query>::iterator> stored;
  std::vector<planner::IncrementalPlanner::Submission> subs;
  for (std::size_t i = 0; i < valid; ++i) {
    storage_.push_back(std::move(batch[i].q));
    stored.push_back(std::prev(storage_.end()));
    subs.push_back({&storage_.back(), batch[i].tenant});
  }
  const auto results = planner_.admit(subs);

  std::vector<planner::AdmitId> ids;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i]) {
      const std::string rejected_name = stored[i]->name();
      storage_.erase(stored[i], storage_.end());  // this one and every later one
      count_rejection(results[i].error(), rejected_name);
      return results[i].error();
    }
    const planner::AdmitId id = *results[i];
    owned_.emplace(id, stored[i]);
    dirty_ = true;
    accepted_ctr_->add(1);
    obs::Journal::global().emit(obs::EventType::kAdmissionAccepted, 0, id, 0, 0, 0, 0,
                                stored[i]->name());
    publish_tenant_gauges(batch[i].tenant);
    ids.push_back(id);
  }
  if (invalid_at) {
    count_rejection(*invalid_at, batch[valid].q.name());
    return *invalid_at;
  }
  return ids;
}

util::Expected<util::Ok, AdmissionDiagnostic> ControlPlane::withdraw(planner::AdmitId id) {
  const auto it = owned_.find(id);
  if (it == owned_.end()) {
    AdmissionDiagnostic d;
    d.code = AdmissionDiagnostic::Code::kUnknownHandle;
    d.message = "handle " + std::to_string(id) + " is not an active query";
    return d;
  }
  const std::string tenant{planner_.tenant_of(id)};
  auto result = planner_.withdraw(id);
  if (!result) return result.error();
  // The outgoing plan's pipelines still reference this query's stream
  // nodes; park it until the engine has swapped the plan out.
  retired_.splice(retired_.end(), storage_, it->second);
  owned_.erase(it);
  dirty_ = true;
  withdrawn_ctr_->add(1);
  obs::Journal::global().emit(obs::EventType::kAdmissionWithdrawn, 0, id, 0, 0, 0, 0, tenant);
  publish_tenant_gauges(tenant);
  return util::Ok{};
}

std::optional<planner::AdmitId> ControlPlane::find(std::string_view name) const {
  for (const auto& [id, it] : owned_) {
    if (it->name() == name) return id;
  }
  return std::nullopt;
}

planner::Plan ControlPlane::take_snapshot() {
  dirty_ = false;
  return planner_.snapshot_plan();
}

}  // namespace sonata::runtime
