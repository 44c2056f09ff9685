// Shared chain-install machinery for the planners.
//
// A ChainInstaller places one query's refinement chain on top of a partial
// switch layout: greedy max-partition-with-backoff per pipeline, register
// sizing with the collision-overflow model, exact stage layout (C1-C5) as
// the feasibility oracle. Both the joint branch-and-bound (planner.cc) and
// the incremental planner (incremental.cc) go through it, so identical
// inputs give identical installs.
//
// One search node must cost one pipeline, not the whole layout, so:
//  * every (source, prev level, level) pipeline is priced once and
//    memoized: its refined node, register sizing and overflow penalty are
//    functions of that key alone, and so is the switch program
//    (ProgramResources) of each of its partitions, built on first use;
//  * the partial layout is a pisa::StagePacker. Trying a partition pushes
//    one program onto the packed prefix and truncates it again; nothing
//    already placed is re-packed.
//
// Installs can be constrained by per-tenant resource limits (InstallLimits):
// a budget caps the match-action tables and register bits one install may
// consume, and may forbid the partition-0 raw-mirror fallback — which makes
// rejection possible, and is what turns tenant budgets into real isolation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "planner/planner.h"

namespace sonata::planner {

[[nodiscard]] std::string filter_table_name(query::QueryId qid, int source, int level);

// Switch footprint of one install: the tenant-budget accounting unit.
struct Footprint {
  std::uint64_t tables = 0;         // match-action tables across stages
  std::uint64_t register_bits = 0;  // register memory across stateful tables
};

// Per-install resource constraints (defaults: unconstrained).
struct InstallLimits {
  std::uint64_t max_tables = ~std::uint64_t{0};
  std::uint64_t max_register_bits = ~std::uint64_t{0};
  bool allow_mirror = true;  // may a pipeline fall back to partition 0?
  // Pick the smallest feasible partition per pipeline instead of the
  // cheapest (used to compute the smallest budget that would admit).
  bool minimize_footprint = false;
};

struct Installed {
  PlannedQuery pq;
  std::uint64_t n = 0;  // SP tuple contribution, excluding the shared raw charge
  bool raw = false;     // some pipeline stays at partition 0 (raw mirror)
  Footprint footprint;  // resources this install appended
};

class ChainInstaller {
 public:
  // Owns a fresh estimator over `windows`. Either way the installer queues
  // on its estimator every transition its chains() reach (require()), for
  // the caller's build_estimators() over all its installers: estimator
  // construction is the expensive, cacheable part of planning.
  ChainInstaller(const PlannerConfig& cfg, const query::Query& q,
                 const std::vector<TupleWindow>& windows, std::uint64_t window_packets);
  // Borrows `est` (EstimatorPool reuse); `est` must outlive the installer.
  ChainInstaller(const PlannerConfig& cfg, const query::Query& q, CostEstimator* est,
                 std::uint64_t window_packets);

  [[nodiscard]] CostEstimator& estimator() { return *est_; }
  [[nodiscard]] const query::Query& base() const noexcept { return *q_; }

  // Candidate refinement chains for the config's mode (finest last), in
  // enumerate_chains order (shorter first).
  [[nodiscard]] std::vector<std::vector<int>> chains();

  // The cheapest possible N for a chain assuming maximal partitions fit
  // (the admissible per-query bound of the branch-and-bound).
  [[nodiscard]] std::uint64_t optimistic_cost(const std::vector<int>& chain);

  // Install `chain` on top of `packer`, pushing the program of every
  // partition >= 1 pipeline. Returns nullopt — with `packer` truncated back
  // — when no placement satisfies `limits` (cannot happen with default
  // limits: partition 0 always fits). `force_all_sp` pins every pipeline to
  // partition 0 (the all-raw fallback layout).
  std::optional<Installed> install(const std::vector<int>& chain, pisa::StagePacker& packer,
                                   bool raw_already, bool force_all_sp,
                                   const InstallLimits& limits = {});

  // The switch program of a pipeline this installer placed (partition >= 1).
  [[nodiscard]] const pisa::ProgramResources& program(const PlannedPipeline& p);

 private:
  // One (source, prev level, level) pipeline, priced once.
  struct Candidate {
    std::shared_ptr<query::StreamNode> node;
    std::size_t max_partition = 0;  // semantic limit (max_switch_prefix)
    std::string filter_table;       // "" at chain heads
    std::map<std::size_t, pisa::RegisterSizing> sizing;
    std::map<std::size_t, std::uint64_t> overflow_extra;  // op -> extra N when on the switch
    std::vector<std::optional<pisa::ProgramResources>> programs;  // [partition], lazily
  };

  Candidate& candidate(int source, int prev, int level);
  const pisa::ProgramResources& program(Candidate& c, std::size_t partition, int source,
                                        int level);
  std::shared_ptr<query::StreamNode> refined_node(int source, int prev, int level);
  std::vector<std::size_t> partition_choices(const query::StreamNode& node, std::size_t max_p,
                                             bool force_all_sp) const;

  const PlannerConfig* cfg_;
  const query::Query* q_;
  std::unique_ptr<CostEstimator> owned_;
  CostEstimator* est_;
  std::uint64_t window_packets_ = 0;

  std::map<std::tuple<int, int, int>, Candidate> candidates_;
};

// Expected number of keys, out of `k` random keys, that find no slot in a
// `d`-deep chain of `n`-entry registers. Monte-Carlo with a fixed seed per
// `k`: a pure function of (k, n, d).
[[nodiscard]] std::uint64_t estimate_overflow_keys(std::uint64_t k, std::size_t n, int d);

// Build the executable plan from chosen installs: switch programs and stage
// layout, per-level exec queries (winner queries at coarse levels, the full
// tree at the finest) and source remaps. Clears any stale exec state first,
// so a stored PlannedQuery can be re-assembled after plan mutations.
[[nodiscard]] Plan assemble_plan(const PlannerConfig& cfg, std::vector<PlannedQuery> queries,
                                 bool raw_mirror, std::uint64_t window_packets,
                                 std::uint64_t objective);

}  // namespace sonata::planner
