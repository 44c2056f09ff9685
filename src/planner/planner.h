// The query planner: jointly chooses refinement chains and partition points
// for a set of queries to minimize packet tuples at the stream processor,
// subject to the switch resource model (paper §3.3 + §4.2).
//
// The paper solves an ILP with Gurobi (time-capped at 20 minutes, accepting
// the best found solution). We solve the same optimization with exact
// branch-and-bound over per-query refinement chains, with a greedy
// max-partition-with-backoff install per pipeline and exact stage layout
// (C1-C5) as the feasibility oracle. The admissible bound is the sum of
// each remaining query's contention-free minimum. A node cap bounds the
// search like the paper's time cap.
//
// The Table 4 baselines are planner modes — extra constraints on the same
// optimization — exactly how the paper emulates the systems it compares to.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pisa/config.h"
#include "pisa/layout.h"
#include "pisa/program.h"
#include "planner/estimator.h"
#include "planner/refine.h"
#include "query/query.h"

namespace sonata::planner {

enum class PlanMode : std::uint8_t {
  kSonata,    // full joint optimization
  kAllSP,     // mirror everything to the stream processor (Gigascope/OpenSOC/NetQRE)
  kFilterDP,  // only leading filters on the switch (EverFlow)
  kMaxDP,     // maximal partition, no refinement (UnivMon/OpenSketch)
  kFixRef,    // fixed full refinement chain (DREAM)
};

[[nodiscard]] std::string_view to_string(PlanMode mode) noexcept;

struct PlannerConfig {
  pisa::SwitchConfig switch_config;
  PlanMode mode = PlanMode::kSonata;
  util::Nanos window = util::seconds(3);
  // Candidate refinement levels (finest is always appended).
  std::vector<int> ip_levels = {8, 16, 24};
  std::vector<int> dns_levels = {1, 2};
  int max_delay_windows = 8;      // D_q: max refinement chain length
  int register_depth = 2;         // d registers per stateful op
  double register_headroom = 3.0; // n = headroom * median training keys
  double relax_margin = 0.5;      // scale on relaxed refinement thresholds
  std::size_t min_register_entries = 64;
  std::uint64_t search_node_cap = 100000;  // B&B budget (the paper's 20-min cap)
};

// One (query, source, refinement transition) pipeline instance.
struct PlannedPipeline {
  query::QueryId qid = 0;
  int source_index = 0;
  int level = kFinestIpLevel;
  int prev_level = kNoPrevLevel;
  std::shared_ptr<query::StreamNode> node;  // augmented chain, validated
  std::size_t partition = 0;                // ops on the switch
  std::map<std::size_t, pisa::RegisterSizing> sizing;
  std::string filter_table;  // its dynamic filter table ("" at chain heads)
  std::uint64_t est_tuples = 0;
};

struct PlannedQuery {
  const query::Query* base = nullptr;
  bool refined = false;
  std::vector<int> chain;           // levels ascending, finest last
  std::vector<RefinementKey> keys;  // per source (valid when refined)
  std::vector<PlannedPipeline> pipelines;  // sources x chain levels
  // Executable query per level. Coarse levels hold the *winner query*
  // (stateful sub-queries only — raw sources and post-join operators run
  // at the finest level only, per the paper's §4.2 / Figure 9 semantics);
  // the finest level holds the full query. Source nodes are the pipelines'
  // augmented nodes, so the runtime executes the stream-processor part of
  // exactly what the switch was programmed with.
  std::map<int, query::Query> exec_queries;
  // Per level: original source index -> source position inside
  // exec_queries.at(level) (-1 when the source does not execute at that
  // level).
  std::map<int, std::vector<int>> source_remap;
  std::uint64_t est_tuples = 0;
};

struct Plan {
  pisa::SwitchConfig switch_config;
  PlanMode mode = PlanMode::kSonata;
  util::Nanos window = util::seconds(3);
  std::vector<PlannedQuery> queries;
  std::vector<pisa::ProgramResources> resources;  // flattened, install order
  pisa::Layout layout;
  bool raw_mirror = false;          // some pipeline keeps partition 0
  std::uint64_t est_window_packets = 0;
  std::uint64_t est_total_tuples = 0;  // objective value (per window)
  // Control-plane version: bumped by every admission/withdrawal swap (the
  // plan is a versioned object swapped at window barriers; see DESIGN.md
  // "Query control plane"). 0 = a statically built plan.
  std::uint64_t version = 0;

  [[nodiscard]] std::string summary() const;

  // 64-bit fingerprint of everything the roles of a distributed deployment
  // must agree on for their windows to equal the in-process ones: the
  // serialized plan (mode, levels, partitions, register sizing, filter
  // tables, window), the query set and the switch config. The collector
  // rejects a switch node whose fingerprint differs at the handshake.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

// Shared, lazily-filled cost estimators: plans for different modes / switch
// configurations over the same training data reuse the (expensive)
// trace-driven cost model. Each plan_windows() over the pool builds only
// what its chains need and the pool's estimators still lack, through the
// same build_estimators() rounds. Levels must match the PlannerConfig the
// pool is used with; queries are matched by position.
class EstimatorPool {
 public:
  EstimatorPool(const std::vector<query::Query>& queries,
                const std::vector<TupleWindow>& windows, std::vector<int> ip_levels,
                std::vector<int> dns_levels, double relax_margin = 0.5);

  [[nodiscard]] CostEstimator& at(std::size_t i) { return estimators_.at(i); }
  [[nodiscard]] std::size_t size() const noexcept { return estimators_.size(); }

 private:
  std::deque<CostEstimator> estimators_;
};

class Planner {
 public:
  explicit Planner(PlannerConfig cfg) : cfg_(std::move(cfg)) {}

  // Plan for `queries` using `training` packets as historical data. The
  // queries must outlive the returned plan.
  [[nodiscard]] Plan plan(const std::vector<query::Query>& queries,
                          std::span<const net::Packet> training);

  // Variant over pre-materialized training windows (reused across plans).
  // `pool` (optional) supplies shared estimators; it must have been built
  // from a prefix-compatible query list (same order) and the same levels.
  [[nodiscard]] Plan plan_windows(const std::vector<query::Query>& queries,
                                  const std::vector<TupleWindow>& windows,
                                  EstimatorPool* pool = nullptr);

  [[nodiscard]] const PlannerConfig& config() const noexcept { return cfg_; }

 private:
  PlannerConfig cfg_;
};

// Materialize training packets into per-window tuple sets (shared by
// planner and benchmarks).
[[nodiscard]] std::vector<TupleWindow> materialize_windows(std::span<const net::Packet> packets,
                                                           util::Nanos window);

// Median packets per training window: the raw-mirror charge and the
// objective's normalization constant, shared by every planning entry point.
[[nodiscard]] std::uint64_t median_window_packets(const std::vector<TupleWindow>& windows);

// Joint branch-and-bound over caller-supplied install state (install.h).
// `installers[i]` must wrap `queries[i]`; both spans must outlive the call.
// It first builds what the installers' estimators lack, all together
// (build_estimators).
// This is the seam the incremental planner's full re-solve goes through, so
// a cached-estimator re-solve is bitwise identical to a cold plan_windows()
// over the same query order.
class ChainInstaller;
[[nodiscard]] Plan plan_joint(const PlannerConfig& cfg,
                              std::span<const query::Query* const> queries,
                              std::span<ChainInstaller* const> installers,
                              std::uint64_t window_packets);

}  // namespace sonata::planner
