#include "planner/incremental.h"

#include <algorithm>
#include <cassert>

#include "pisa/compile.h"
#include "util/log.h"

namespace sonata::planner {

using query::Query;

std::string_view to_string(AdmissionDiagnostic::Code code) noexcept {
  switch (code) {
    case AdmissionDiagnostic::Code::kValidation: return "validation";
    case AdmissionDiagnostic::Code::kDuplicateQueryId: return "duplicate_query_id";
    case AdmissionDiagnostic::Code::kUnknownTenant: return "unknown_tenant";
    case AdmissionDiagnostic::Code::kUnknownHandle: return "unknown_handle";
    case AdmissionDiagnostic::Code::kStageBudget: return "stage_budget";
    case AdmissionDiagnostic::Code::kRegisterBudget: return "register_budget";
    case AdmissionDiagnostic::Code::kLayout: return "layout";
    case AdmissionDiagnostic::Code::kNoControlPlane: return "no_control_plane";
    case AdmissionDiagnostic::Code::kScript: return "script";
    case AdmissionDiagnostic::Code::kTopology: return "topology";
  }
  return "?";
}

std::string AdmissionDiagnostic::to_string() const {
  std::string out = "admission[" + std::string(planner::to_string(code)) + "]";
  if (!tenant.empty()) out += " tenant=" + tenant;
  if (!constraint.empty()) {
    out += " constraint=" + constraint + " budget=" + std::to_string(budget) +
           " in_use=" + std::to_string(in_use) + " required=" + std::to_string(required);
  }
  if (smallest_admitting) {
    out += " smallest_admitting={stages=" + std::to_string(smallest_admitting->stage_tables) +
           " bits=" + std::to_string(smallest_admitting->register_bits) + "}";
  }
  if (!message.empty()) out += ": " + message;
  return out;
}

IncrementalPlanner::IncrementalPlanner(PlannerConfig cfg, std::vector<TupleWindow> training)
    : cfg_(std::move(cfg)), windows_(std::move(training)), packer_(cfg_.switch_config) {
  window_packets_ = median_window_packets(windows_);
  tenants_.emplace("", TenantBudget{});  // the unlimited default tenant
}

void IncrementalPlanner::define_tenant(std::string_view name, TenantBudget budget) {
  tenants_.insert_or_assign(std::string(name), budget);
}

bool IncrementalPlanner::tenant_defined(std::string_view name) const {
  return tenants_.find(name) != tenants_.end();
}

TenantUsage IncrementalPlanner::tenant_usage(std::string_view name) const {
  TenantUsage usage;
  for (const auto& e : entries_) {
    if (e.tenant != name) continue;
    usage.stage_tables += e.footprint.tables;
    usage.register_bits += e.footprint.register_bits;
    ++usage.queries;
  }
  return usage;
}

std::vector<std::string> IncrementalPlanner::tenant_names() const {
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [name, budget] : tenants_) out.push_back(name);
  return out;
}

bool IncrementalPlanner::raw_active() const noexcept {
  return std::any_of(entries_.begin(), entries_.end(), [](const Entry& e) { return e.raw; });
}

bool IncrementalPlanner::budget_constrained() const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
    const auto it = tenants_.find(e.tenant);
    return it != tenants_.end() && it->second.limited();
  });
}

Footprint IncrementalPlanner::place(const Entry& e, bool* fits) {
  Footprint fp;
  for (const auto& p : e.pq.pipelines) {
    if (p.partition == 0) continue;
    const pisa::ProgramResources& pr = e.installer->program(p);
    fp.tables += pr.tables.size();
    fp.register_bits += pr.total_register_bits();
    if (!packer_.push(pr) && fits != nullptr) *fits = false;
  }
  return fp;
}

bool IncrementalPlanner::repack() {
  packer_.truncate(0);
  bool fits = true;
  for (auto& e : entries_) e.footprint = place(e, &fits);
  return fits;
}

void IncrementalPlanner::recompute(bool allow_full_solve) {
  std::uint64_t sum_n = 0;
  std::uint64_t lower_bound = 0;
  bool raw = false;
  for (const auto& e : entries_) {
    sum_n += e.n;
    lower_bound += e.min_cost;
    raw = raw || e.raw;
  }
  objective_ = sum_n + (raw ? window_packets_ : 0);
  all_sp_cap_ = false;
  if (entries_.empty() || cfg_.mode == PlanMode::kAllSP || budget_constrained()) {
    // All-SP is already the raw layout; budget-constrained sets keep their
    // greedy in-order placements (deterministic fairness — a joint re-solve
    // has no tenant limits and could move an earlier tenant's resources).
    ++inc_solves_;
    return;
  }
  if (lower_bound >= window_packets_) {
    // From scratch, branch-and-bound cannot beat one window of raw packets
    // (every completion is >= the bound), so the all-raw fallback would
    // cap the plan. Skip the search entirely.
    all_sp_cap_ = true;
    objective_ = window_packets_;
    ++inc_solves_;
    return;
  }
  if (objective_ == lower_bound) {
    // Certified: every placement sits at its contention-free minimum, which
    // is what from-scratch branch-and-bound would also converge to.
    ++inc_solves_;
    return;
  }
  if (!allow_full_solve) {
    ++inc_solves_;
    return;
  }
  full_resolve();
}

void IncrementalPlanner::full_resolve() {
  // Joint re-solve in admission order with the *cached* installers: the
  // estimators (the expensive part) are reused, only the search re-runs.
  std::vector<const Query*> queries;
  std::vector<ChainInstaller*> installers;
  queries.reserve(entries_.size());
  installers.reserve(entries_.size());
  for (auto& e : entries_) {
    queries.push_back(e.q);
    installers.push_back(e.installer.get());
  }
  Plan plan = plan_joint(cfg_, queries, installers, window_packets_);
  assert(plan.queries.size() == entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    e.pq = std::move(plan.queries[i]);
    e.n = e.pq.est_tuples;
    e.raw = std::any_of(e.pq.pipelines.begin(), e.pq.pipelines.end(),
                        [](const PlannedPipeline& p) { return p.partition == 0; });
  }
  // plan_joint packed these programs in this order, so they fit again.
  const bool fits = repack();
  assert(fits);
  (void)fits;
  objective_ = plan.est_total_tuples;
  ++full_solves_;
}

std::vector<util::Expected<AdmitId, AdmissionDiagnostic>> IncrementalPlanner::admit(
    std::span<const Submission> batch) {
  std::vector<std::unique_ptr<ChainInstaller>> installers;
  std::vector<CostEstimator*> estimators;
  installers.reserve(batch.size());
  estimators.reserve(batch.size());
  for (const Submission& sub : batch) {
    installers.push_back(std::make_unique<ChainInstaller>(cfg_, *sub.q, windows_, window_packets_));
    estimators.push_back(&installers.back()->estimator());
  }
  build_estimators(estimators);
  std::vector<util::Expected<AdmitId, AdmissionDiagnostic>> results;
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results.push_back(admit_one(*batch[i].q, batch[i].tenant, std::move(installers[i])));
    if (!results.back()) break;
  }
  return results;
}

util::Expected<AdmitId, AdmissionDiagnostic> IncrementalPlanner::admit(const Query& q,
                                                                       std::string_view tenant) {
  const Submission one{&q, tenant};
  return std::move(admit({&one, 1}).front());
}

util::Expected<AdmitId, AdmissionDiagnostic> IncrementalPlanner::admit_one(
    const Query& q, std::string_view tenant, std::unique_ptr<ChainInstaller> installer) {
  for (const auto& e : entries_) {
    if (e.q->id() == q.id()) {
      AdmissionDiagnostic d;
      d.code = AdmissionDiagnostic::Code::kDuplicateQueryId;
      d.tenant = std::string(tenant);
      d.message = "query id " + std::to_string(q.id()) + " is already active (\"" +
                  e.q->name() + "\")";
      return d;
    }
  }
  const auto tenant_it = tenants_.find(tenant);
  if (tenant_it == tenants_.end()) {
    AdmissionDiagnostic d;
    d.code = AdmissionDiagnostic::Code::kUnknownTenant;
    d.tenant = std::string(tenant);
    d.message = "tenant \"" + std::string(tenant) + "\" was never defined";
    return d;
  }
  const TenantBudget budget = tenant_it->second;
  const TenantUsage usage = tenant_usage(tenant);

  // Candidate chains by optimistic cost (stable: shorter chains win ties).
  std::vector<std::vector<int>> chains = installer->chains();
  std::vector<std::uint64_t> optimistic;
  optimistic.reserve(chains.size());
  std::uint64_t min_cost = ~std::uint64_t{0};
  for (const auto& chain : chains) {
    optimistic.push_back(installer->optimistic_cost(chain));
    min_cost = std::min(min_cost, optimistic.back());
  }
  std::vector<std::size_t> order(chains.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return optimistic[a] < optimistic[b]; });

  InstallLimits limits;
  if (budget.limited()) {
    // Finite budgets forbid the raw mirror: mirroring consumes no switch
    // resources, so a budgeted tenant could otherwise never be rejected —
    // and its queries would silently become pure-SP load.
    limits.allow_mirror = false;
    limits.max_tables = budget.stage_tables == kUnlimited
                            ? kUnlimited
                            : budget.stage_tables - std::min(usage.stage_tables,
                                                             budget.stage_tables);
    limits.max_register_bits =
        budget.register_bits == kUnlimited
            ? kUnlimited
            : budget.register_bits - std::min(usage.register_bits, budget.register_bits);
  }

  // Greedy single-query placement over the existing layout: best chain by
  // realized cost, pruned by the optimistic bound.
  std::optional<Installed> best;
  std::uint64_t best_cost = ~std::uint64_t{0};
  const bool raw_before = raw_active();
  for (const std::size_t ci : order) {
    if (best && optimistic[ci] >= best_cost) break;  // sorted: no later chain can win
    const std::size_t mark = packer_.size();
    auto inst =
        installer->install(chains[ci], packer_, raw_before, /*force_all_sp=*/false, limits);
    packer_.truncate(mark);
    if (!inst) continue;
    const std::uint64_t cost = inst->n + ((inst->raw && !raw_before) ? window_packets_ : 0);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(inst);
    }
  }

  if (!best) {
    // Diagnose: find the smallest switch-resident placement (single-level
    // chain, smallest feasible partitions), ignoring the tenant budget.
    InstallLimits probe;
    probe.allow_mirror = false;
    probe.minimize_footprint = true;
    const std::size_t mark = packer_.size();
    auto minimal = installer->install({installer->estimator().finest_level()}, packer_,
                                      raw_before, /*force_all_sp=*/false, probe);
    packer_.truncate(mark);
    AdmissionDiagnostic d;
    d.tenant = std::string(tenant);
    if (!minimal) {
      d.code = AdmissionDiagnostic::Code::kLayout;
      d.constraint = "layout";
      d.message = "query \"" + q.name() +
                  "\" has no switch-resident placement: the stage layout cannot host it at any "
                  "partition (switch full)";
      return d;
    }
    const Footprint fp = minimal->footprint;
    d.smallest_admitting =
        TenantBudget{usage.stage_tables + fp.tables, usage.register_bits + fp.register_bits};
    const std::uint64_t remaining_tables =
        budget.stage_tables - std::min(usage.stage_tables, budget.stage_tables);
    if (budget.stage_tables != kUnlimited && fp.tables > remaining_tables) {
      d.code = AdmissionDiagnostic::Code::kStageBudget;
      d.constraint = "stage_tables";
      d.budget = budget.stage_tables;
      d.in_use = usage.stage_tables;
      d.required = fp.tables;
      d.message = "query \"" + q.name() + "\" needs " + std::to_string(fp.tables) +
                  " match-action tables; tenant has " + std::to_string(remaining_tables) +
                  " of " + std::to_string(budget.stage_tables) + " left";
    } else if (budget.register_bits != kUnlimited) {
      const std::uint64_t remaining_bits =
          budget.register_bits - std::min(usage.register_bits, budget.register_bits);
      d.code = AdmissionDiagnostic::Code::kRegisterBudget;
      d.constraint = "register_bits";
      d.budget = budget.register_bits;
      d.in_use = usage.register_bits;
      d.required = fp.register_bits;
      d.message = "query \"" + q.name() + "\" needs " + std::to_string(fp.register_bits) +
                  " register bits; tenant has " + std::to_string(remaining_bits) + " of " +
                  std::to_string(budget.register_bits) + " left";
    } else {
      d.code = AdmissionDiagnostic::Code::kLayout;
      d.constraint = "layout";
      d.message = "query \"" + q.name() +
                  "\" cannot be placed within the tenant budget on the current layout";
    }
    return d;
  }

  // Commit: record the entry and pack the winning placement's programs.
  Entry e;
  e.id = next_id_++;
  e.q = &q;
  e.tenant = std::string(tenant);
  e.installer = std::move(installer);
  e.pq = std::move(best->pq);
  e.n = best->n;
  e.raw = best->raw;
  e.footprint = best->footprint;
  e.min_cost = min_cost;
  const AdmitId id = e.id;
  entries_.push_back(std::move(e));
  bool fits = true;
  place(entries_.back(), &fits);
  assert(fits && "the admission search placed it on this packer");
  (void)fits;
  recompute(/*allow_full_solve=*/true);
  SONATA_INFO("planner", "admitted \"%s\" (handle %llu, tenant \"%s\"): objective=%llu",
              q.name().c_str(), static_cast<unsigned long long>(id),
              entries_.back().tenant.c_str(), static_cast<unsigned long long>(objective_));
  return id;
}

util::Expected<util::Ok, AdmissionDiagnostic> IncrementalPlanner::withdraw(AdmitId id) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) {
    AdmissionDiagnostic d;
    d.code = AdmissionDiagnostic::Code::kUnknownHandle;
    d.message = "handle " + std::to_string(id) + " is not an active query";
    return d;
  }
  SONATA_INFO("planner", "withdrawing \"%s\" (handle %llu)", it->q->name().c_str(),
              static_cast<unsigned long long>(id));
  entries_.erase(it);
  // Reclaim: re-pack the remaining placements with the withdrawn ones gone.
  // First-fit is not monotone: without the withdrawn program a later one
  // can move into earlier stages and push the next one out. Then the
  // remaining queries are re-solved jointly, which yields placements that
  // pack (tenant budgets are not re-checked on this path).
  if (!repack()) full_resolve();
  recompute(/*allow_full_solve=*/true);
  return util::Ok{};
}

Plan IncrementalPlanner::snapshot_plan() {
  Plan plan;
  if (all_sp_cap_) {
    // The certified fallback layout: everything at the SP behind one raw
    // mirror (what from-scratch planning would emit).
    pisa::StagePacker packer(cfg_.switch_config);
    std::vector<PlannedQuery> pqs;
    bool raw = false;
    for (auto& e : entries_) {
      auto inst = e.installer->install({e.installer->estimator().finest_level()}, packer, raw,
                                       /*force_all_sp=*/true);
      assert(inst.has_value());
      raw = raw || inst->raw;
      pqs.push_back(std::move(inst->pq));
    }
    plan = assemble_plan(cfg_, std::move(pqs), raw, window_packets_,
                         entries_.empty() ? 0 : window_packets_);
  } else {
    std::vector<PlannedQuery> pqs;
    pqs.reserve(entries_.size());
    for (const auto& e : entries_) pqs.push_back(e.pq);
    plan = assemble_plan(cfg_, std::move(pqs), raw_active(), window_packets_, objective_);
  }
  plan.version = ++version_;
  return plan;
}

const Query* IncrementalPlanner::query(AdmitId id) const noexcept {
  for (const auto& e : entries_) {
    if (e.id == id) return e.q;
  }
  return nullptr;
}

std::string_view IncrementalPlanner::tenant_of(AdmitId id) const noexcept {
  for (const auto& e : entries_) {
    if (e.id == id) return e.tenant;
  }
  return {};
}

}  // namespace sonata::planner
