// Training-data cost estimation (paper §3.3 "Input" and §4.2, Figure 5).
//
// The planner replays historical windows through each query to estimate,
// per (source, refinement transition r_prev -> r, partition point k):
//   N_{q,t}: packet tuples the switch would send to the stream processor,
//   keys:    distinct keys per stateful operator (register sizing), and
// per (source, level): the relaxed threshold Th_r (the minimum coarse
// aggregate among keys that satisfy the original query — keeping every
// training positive, paper §4.1).
//
// Like Figure 5's exposition, transition costs use same-window winner sets
// (the paper assumes counts are stable across consecutive windows).
//
// Building. Every replay is a pure function of (query, training window), so
// build_estimators() runs them as flat task lists over every estimator it is
// given, on min(available cores, tasks) threads (util::TaskPool), in three
// rounds:
//   1. relaxed thresholds: per (query, window) the satisfying keys and each
//      thresholded source's fine rows, then per (query, source, level,
//      window) the coarse replay;
//   2. winner sets, per (query, level, window);
//   3. transitions, per (query, source, prev, level, window).
// Tasks write their results by index; medians, minima and the memo tables
// are filled serially afterwards, so estimates never depend on scheduling.
// Replays read the training tuples in place and copy only what a map,
// distinct or reduce keeps.
//
// What gets built: the transitions queued by require() (a ChainInstaller
// queues every transition its candidate chains reach), the winner sets they
// read, and the relaxed thresholds. An accessor that finds its value
// missing queues it and builds its own estimator through the same rounds.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "planner/refine.h"
#include "query/query.h"

namespace sonata::planner {

struct TransitionCost {
  // n_after[k]: tuples to the SP per window when ops[0..k) of the (refined)
  // chain run on the switch. Index 0 = every packet of the window. Valid
  // for k up to the semantic max prefix; entries beyond are zero-filled.
  std::vector<std::uint64_t> n_after;
  // Median distinct keys per stateful op index (register sizing input).
  std::map<std::size_t, std::uint64_t> stateful_keys;
};

// One training window's packets, pre-materialized to source tuples.
using TupleWindow = std::vector<query::Tuple>;

class CostEstimator {
 public:
  // `q` must be validated and outlive the estimator; `windows` are the
  // training windows (shared across queries); `ip_levels`/`dns_levels` are
  // the candidate refinement levels (finest appended if missing).
  // `relax_margin` scales the training-derived relaxed thresholds (paper
  // §4.1): 1.0 keeps exactly every training positive; smaller values leave
  // headroom for traffic variance between training and live windows.
  // Construction replays nothing; build_estimators() does.
  CostEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                std::vector<int> ip_levels, std::vector<int> dns_levels,
                double relax_margin = 0.5);

  // Dynamic refinement applies: the operator declared the query refinable
  // and every source traces a hierarchical key of one common kind.
  [[nodiscard]] bool refinable() const noexcept { return refinable_; }
  [[nodiscard]] const std::vector<RefinementKey>& keys() const noexcept { return keys_; }

  // Candidate levels, ascending, finest last. Single-element (finest) when
  // not refinable.
  [[nodiscard]] const std::vector<int>& levels() const noexcept { return levels_; }
  [[nodiscard]] int finest_level() const noexcept { return levels_.back(); }

  // Queue every transition `chain` reaches for the next build: per source,
  // each (prev, level) step of the chain; sources without stateful ops run
  // at the finest level only (make_winner_query).
  void require(const std::vector<int>& chain);

  // Relaxed threshold for `source`'s trailing filter at `level`; nullopt at
  // the finest level or when the source has no trailing threshold filter.
  [[nodiscard]] std::optional<std::uint64_t> relaxed_threshold(int source, int level);

  // Cost of running `level` after `prev` (kNoPrevLevel at a chain head).
  const TransitionCost& transition(int source, int prev, int level);

  // Winner keys at `level` for window `w`: the output keys of the winner
  // query (stateful sub-queries with relaxed thresholds; raw sources and
  // post-join operators excluded — see make_winner_query). These seed the
  // next refinement level's dynamic filters.
  const std::vector<query::Tuple>& winners(int level, std::size_t w);

  [[nodiscard]] std::size_t window_count() const noexcept { return windows_->size(); }
  [[nodiscard]] const query::Query& base_query() const noexcept { return *query_; }

 private:
  friend class EstimatorBuild;
  using TransitionKey = std::tuple<int, int, int>;  // (source, prev, level)

  [[nodiscard]] std::optional<std::uint64_t> relaxed(int source, int level) const;

  const query::Query* query_;
  const std::vector<TupleWindow>* windows_;
  double relax_margin_ = 0.5;
  bool refinable_ = false;
  std::vector<RefinementKey> keys_;
  std::vector<int> levels_;

  // Round 1 ran (always true when not refinable: nothing to relax).
  bool thresholds_built_ = false;
  // relaxed_[source][level]
  std::vector<std::map<int, std::uint64_t>> relaxed_;
  // winners_[level][window]
  std::map<int, std::vector<std::vector<query::Tuple>>> winners_;
  // costs_[(source, prev, level)]
  std::map<TransitionKey, TransitionCost> costs_;
  // Queued for the next build; cleared by it.
  std::set<TransitionKey> wanted_;
  std::set<int> wanted_winners_;
};

// Builds what every estimator in `estimators` is missing (see the top of
// this file) in three rounds of tasks across all of them. Estimators that
// lack nothing cost nothing.
void build_estimators(std::span<CostEstimator* const> estimators);

// Instrumented single-window chain run (exposed for tests).
struct InstrumentedResult {
  std::vector<std::uint64_t> n_after;                 // size ops+1
  std::map<std::size_t, std::uint64_t> stateful_keys; // distinct keys per stateful op
};
InstrumentedResult run_instrumented(
    const query::StreamNode& node, std::span<const query::Tuple> tuples,
    const std::vector<query::Tuple>* front_filter_entries);

}  // namespace sonata::planner
