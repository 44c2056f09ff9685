// Incremental re-planning for the dynamic query control plane.
//
// The joint planner (planner.cc) solves the whole query set from scratch;
// on a production control plane queries arrive and leave continuously, and
// estimator construction — replaying every training window per query —
// dominates that cost. The IncrementalPlanner keeps the B&B's search state
// alive across mutations: per-query ChainInstallers (estimators and
// priced pipelines), chosen placements, and the shared stage layout (a
// pisa::StagePacker). Admission places only the new query (greedy over the existing
// layout); withdrawal reclaims only its resources.
//
// Admission takes a batch: the estimators of every query in it are built
// together, in build_estimators()'s rounds of tasks on every available
// core, before the queries are placed one by one in submission order. A
// deployment's initial query set is one batch (EngineBuilder); a runtime
// submit is a batch of one.
//
// Cost optimality is preserved by certification, not hope: a mutation's
// greedy result is accepted only when the total objective equals the
// branch-and-bound's own admissible lower bound (the sum of contention-free
// per-query minima) or hits the all-raw fallback cap; otherwise the planner
// falls back to a joint re-solve through plan_joint() with the *cached*
// installers — the expensive estimators are never rebuilt. Either way the
// resulting plan cost equals a from-scratch plan over the same queries in
// admission order (the differential property admission_test.cc fuzzes).
//
// Tenant isolation: each tenant gets a switch budget (match-action tables,
// register bits). A finite budget forbids the partition-0 raw-mirror
// fallback — mirroring is free on the switch, so a budget could otherwise
// never reject — which makes admission control real: a submission that
// cannot be placed within the tenant's remaining budget is rejected with a
// structured diagnostic naming the binding constraint and the smallest
// budget that would admit it. Fairness is deterministic: submissions are
// processed strictly in arrival order and existing placements are never
// evicted by later ones.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "planner/install.h"
#include "planner/planner.h"
#include "util/expected.h"

namespace sonata::planner {

inline constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

struct TenantBudget {
  std::uint64_t stage_tables = kUnlimited;   // match-action tables across stages
  std::uint64_t register_bits = kUnlimited;  // register memory across those tables

  [[nodiscard]] bool limited() const noexcept {
    return stage_tables != kUnlimited || register_bits != kUnlimited;
  }
};

struct TenantUsage {
  std::uint64_t stage_tables = 0;
  std::uint64_t register_bits = 0;
  std::size_t queries = 0;
};

// Structured admission/withdrawal failure: machine-checkable code, the
// binding constraint with its numbers, and (for budget rejections) the
// smallest budget that would have admitted the submission.
struct AdmissionDiagnostic {
  enum class Code : std::uint8_t {
    kValidation,        // query failed validation
    kDuplicateQueryId,  // an active query already uses this id
    kUnknownTenant,     // tenant was never defined
    kUnknownHandle,     // withdraw of a handle that is not active
    kStageBudget,       // tenant match-action table budget binds
    kRegisterBudget,    // tenant register-bit budget binds
    kLayout,            // switch stage layout cannot host the query at all
    kNoControlPlane,    // engine was built without a control plane
    kScript,            // malformed admit-script / flag input (tools)
    kTopology,          // a deployment shape the drivers cannot run
  };
  Code code = Code::kValidation;
  std::string message;     // human-readable, one line
  std::string tenant;      // tenant involved ("" = the unlimited default)
  std::string constraint;  // binding dimension ("stage_tables", "register_bits", "layout", ...)
  std::uint64_t budget = 0;    // the binding constraint's limit
  std::uint64_t in_use = 0;    // tenant usage before this submission
  std::uint64_t required = 0;  // what the smallest placement needs
  std::optional<TenantBudget> smallest_admitting;  // set for budget rejections

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string_view to_string(AdmissionDiagnostic::Code code) noexcept;

// Engine-scoped admission handle (also the control-plane QueryHandle id).
using AdmitId = std::uint64_t;

class IncrementalPlanner {
 public:
  // `training` windows feed every estimator built by this planner; the
  // median window size is the raw-mirror charge, exactly as in plan_windows.
  IncrementalPlanner(PlannerConfig cfg, std::vector<TupleWindow> training);

  // Tenants must be defined before they admit queries. Redefining an
  // existing tenant replaces its budget (existing placements are kept).
  void define_tenant(std::string_view name, TenantBudget budget);
  [[nodiscard]] bool tenant_defined(std::string_view name) const;
  [[nodiscard]] TenantUsage tenant_usage(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> tenant_names() const;

  struct Submission {
    const query::Query* q = nullptr;
    std::string_view tenant;  // "" = the unlimited default tenant
  };

  // Place each submission in order, exactly as one admit() after another
  // would: the batch's estimators are built first, together
  // (build_estimators), then each query is placed on the layout the ones
  // before it left. Returns one result per submission up to and including
  // the first rejection; the queries placed before it stay admitted. Each
  // query must be validated and outlive its placement (until withdraw or
  // destruction).
  std::vector<util::Expected<AdmitId, AdmissionDiagnostic>> admit(
      std::span<const Submission> batch);
  // A batch of one.
  util::Expected<AdmitId, AdmissionDiagnostic> admit(const query::Query& q,
                                                     std::string_view tenant = {});
  util::Expected<util::Ok, AdmissionDiagnostic> withdraw(AdmitId id);

  // Assemble the active set into an executable plan (stage layout, exec
  // queries); bumps the plan version.
  [[nodiscard]] Plan snapshot_plan();

  [[nodiscard]] std::size_t active_queries() const noexcept { return entries_.size(); }
  [[nodiscard]] const query::Query* query(AdmitId id) const noexcept;
  [[nodiscard]] std::string_view tenant_of(AdmitId id) const noexcept;
  [[nodiscard]] std::uint64_t objective() const noexcept { return objective_; }
  // Solver accounting: ops certified optimal without a joint re-solve vs
  // ops that fell back to plan_joint (still over cached estimators).
  [[nodiscard]] std::uint64_t incremental_solves() const noexcept { return inc_solves_; }
  [[nodiscard]] std::uint64_t full_solves() const noexcept { return full_solves_; }
  [[nodiscard]] const PlannerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<TupleWindow>& training_windows() const noexcept {
    return windows_;
  }

 private:
  struct Entry {
    AdmitId id = 0;
    const query::Query* q = nullptr;
    std::string tenant;
    std::unique_ptr<ChainInstaller> installer;
    PlannedQuery pq;  // chosen placement (exec queries rebuilt per snapshot)
    std::uint64_t n = 0;   // SP contribution excluding the shared raw charge
    bool raw = false;      // some pipeline rides the raw mirror
    Footprint footprint;   // switch resources of this placement
    std::uint64_t min_cost = 0;  // contention-free lower bound over its chains
  };

  // Admission of one query whose installer's estimator is built.
  util::Expected<AdmitId, AdmissionDiagnostic> admit_one(
      const query::Query& q, std::string_view tenant,
      std::unique_ptr<ChainInstaller> installer);
  [[nodiscard]] bool raw_active() const noexcept;
  [[nodiscard]] bool budget_constrained() const;  // any active limited-tenant entry
  // Push `e`'s switch programs onto the packed layout; returns its footprint.
  // `*fits` is cleared when a program does not fit (and is left out).
  Footprint place(const Entry& e, bool* fits);
  // Every entry's programs, from an empty packer; false when one no longer fits.
  [[nodiscard]] bool repack();
  // Re-derive objective / certification after placements changed; falls
  // back to a joint re-solve when the greedy state cannot be certified.
  void recompute(bool allow_full_solve);
  void full_resolve();

  PlannerConfig cfg_;
  std::vector<TupleWindow> windows_;
  std::uint64_t window_packets_ = 0;
  std::map<std::string, TenantBudget, std::less<>> tenants_;
  std::vector<Entry> entries_;  // admission order (fairness + solve order)
  pisa::StagePacker packer_;     // entries' switch programs, entry order
  std::uint64_t objective_ = 0;
  // From-scratch planning would hit the all-raw fallback (sum of per-query
  // minima >= one window of packets): snapshots emit the All-SP layout and
  // the objective is capped at window_packets, while the greedy placements
  // are kept as shadow state so later mutations stay incremental.
  bool all_sp_cap_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t version_ = 0;
  std::uint64_t inc_solves_ = 0;
  std::uint64_t full_solves_ = 0;
};

}  // namespace sonata::planner
