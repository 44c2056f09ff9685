#include "planner/estimator.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>

#include "net/dns.h"
#include "pisa/compile.h"
#include "state/engine.h"
#include "stream/executor.h"
#include "util/cpu.h"
#include "util/flat_table.h"
#include "util/ip.h"
#include "util/stats.h"
#include "util/task_pool.h"

namespace sonata::planner {

using query::OpKind;
using query::Operator;
using query::StreamNode;
using query::Tuple;

namespace {

// One task slot's instrumented-replay tables. The exact state engines keep
// all-numeric keys as words, and clear() keeps their capacity, so the
// slot's later replays allocate only when a table outgrows every earlier
// one.
struct ReplayTables {
  std::vector<state::DistinctEngine> seen;  // one per distinct op, in chain order
  state::ReduceEngine agg;                  // the first reduce (no tuple passes it)
  util::FlatSet entries;                    // filter_in entries
  Tuple rows[2];                            // map outputs, alternating
  Tuple key;                                // filter_in probe key
};

InstrumentedResult replay_instrumented(const StreamNode& node, std::span<const Tuple> tuples,
                                       const std::vector<Tuple>* front_filter_entries,
                                       ReplayTables& tables) {
  assert(node.kind == StreamNode::Kind::kSource);
  InstrumentedResult res;
  res.n_after.assign(node.ops.size() + 1, 0);
  res.n_after[0] = tuples.size();

  // Bind evaluators per op. Sampling aggregation runs on the same flat
  // keyed-state tables as the live stream executor (util/flat_table.h).
  struct Bound {
    query::Expr::Evaluator pred;
    std::vector<query::Expr::Evaluator> match;
    std::vector<query::Expr::Evaluator> projections;
    std::vector<std::size_t> key_idx;
    std::size_t value_idx = 0;
    query::ReduceFn fn = query::ReduceFn::kSum;
  };
  // Nothing past the first reduce sees a tuple.
  std::size_t stop = 0;
  std::size_t distincts = 0;
  while (stop < node.ops.size() && node.ops[stop].kind != OpKind::kReduce) {
    distincts += node.ops[stop++].kind == OpKind::kDistinct ? 1 : 0;
  }
  if (stop < node.ops.size()) ++stop;  // the reduce itself
  std::vector<Bound> bound(stop);
  if (tables.seen.size() < distincts) tables.seen.resize(distincts);
  std::vector<state::DistinctEngine*> seen(stop, nullptr);  // op -> its table
  for (std::size_t i = 0, d = 0; i < stop; ++i) {
    const Operator& op = node.ops[i];
    const query::Schema& in = node.schemas[i];
    switch (op.kind) {
      case OpKind::kFilter:
        bound[i].pred = op.predicate->bind(in);
        break;
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) bound[i].match.push_back(m->bind(in));
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) bound[i].projections.push_back(p.expr->bind(in));
        break;
      case OpKind::kDistinct:
        seen[i] = &tables.seen[d++];
        seen[i]->clear();
        break;
      case OpKind::kReduce: {
        for (const auto& k : op.keys) bound[i].key_idx.push_back(*in.index_of(k));
        bound[i].value_idx = *in.index_of(op.value_col);
        bound[i].fn = op.fn;
        tables.agg.configure({}, op.fn);
        tables.agg.clear();
        break;
      }
    }
  }

  tables.entries.clear();
  if (front_filter_entries) {
    tables.entries.reserve(front_filter_entries->size());
    for (const auto& e : *front_filter_entries) tables.entries.insert(e);
  }

  // Per-packet pass over the training tuple in place: only a map builds a
  // row (into the slot's alternating rows), and only a new distinct or
  // reduce key is stored. A reduce consumes the tuple (switch semantics:
  // the aggregate lives in registers until the end of the window).
  for (const Tuple& source : tuples) {
    const Tuple* t = &source;
    std::size_t next_row = 0;
    for (std::size_t i = 0; i < stop; ++i) {
      const Operator& op = node.ops[i];
      Bound& b = bound[i];
      bool consumed = false;
      switch (op.kind) {
        case OpKind::kFilter: {
          consumed = b.pred(*t).as_uint() == 0;
          break;
        }
        case OpKind::kFilterIn: {
          Tuple& key = tables.key;
          key.values.clear();
          for (const auto& m : b.match) key.values.push_back(m(*t));
          consumed = !tables.entries.contains(key, key.hash());
          break;
        }
        case OpKind::kMap: {
          Tuple& row = tables.rows[next_row];
          next_row ^= 1;
          row.values.clear();
          for (const auto& p : b.projections) row.values.push_back(p(*t));
          t = &row;
          break;
        }
        case OpKind::kDistinct: {
          consumed = !seen[i]->insert_new(*t, t->hash());
          break;
        }
        case OpKind::kReduce: {
          Tuple key = query::project(*t, b.key_idx);
          const std::uint64_t hash = key.hash();
          tables.agg.update(std::move(key), hash, t->at(b.value_idx).as_uint());
          consumed = true;  // counted at window end
          break;
        }
      }
      if (consumed) break;
      res.n_after[i + 1] += 1;
    }
  }

  // Window-end accounting for stateful tails.
  for (std::size_t i = 0; i < stop; ++i) {
    const Operator& op = node.ops[i];
    if (op.kind == OpKind::kDistinct) {
      res.stateful_keys[i] = seen[i]->usage().entries;
    } else if (op.kind == OpKind::kReduce) {
      const std::uint64_t keys = tables.agg.size();
      res.stateful_keys[i] = keys;
      // Partition ending right after the reduce: one report per key.
      res.n_after[i + 1] = keys;
      // Partition including the folded threshold filter: one report per
      // key whose final aggregate passes.
      if (const auto folded = pisa::foldable_threshold(node, i + 1)) {
        std::uint64_t passing = 0;
        tables.agg.drain_and_clear([&](Tuple&&, std::uint64_t value) {
          passing += (folded->strict ? value > folded->threshold : value >= folded->threshold)
                         ? 1
                         : 0;
        });
        res.n_after[i + 2] = passing;
      }
      break;  // nothing past the (first) reduce runs on the switch
    }
  }
  return res;
}

// Append `finest` if missing; sort ascending; drop anything beyond finest.
std::vector<int> normalize_levels(std::vector<int> levels, int finest) {
  levels.erase(std::remove_if(levels.begin(), levels.end(),
                              [&](int l) { return l <= 0 || l >= finest; }),
               levels.end());
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  levels.push_back(finest);
  return levels;
}

// The chain truncated at its last reduce (trailing filter removed), so its
// end_window() yields the raw (keys..., aggregate) rows.
std::shared_ptr<StreamNode> truncated_at_reduce(std::shared_ptr<StreamNode> node) {
  std::size_t reduce_idx = 0;
  for (std::size_t i = node->ops.size(); i-- > 0;) {
    if (node->ops[i].kind == OpKind::kReduce) {
      reduce_idx = i;
      break;
    }
  }
  node->ops.resize(reduce_idx + 1);
  const std::string err = query::validate_stream_node(*node);
  assert(err.empty());
  (void)err;
  return node;
}

// Coarsen the hierarchical component of a full reduce-key tuple.
Tuple coarsen_key(const RefinementKey& key, Tuple full_key, std::size_t kpos, int level) {
  query::Value& v = full_key.values.at(kpos);
  if (key.is_dns) {
    v = query::Value{net::dns_name_prefix(v.as_string(), static_cast<std::size_t>(level))};
  } else {
    v = query::Value{static_cast<std::uint64_t>(
        util::ipv4_prefix(static_cast<std::uint32_t>(v.as_uint()), level))};
  }
  return full_key;
}

}  // namespace

InstrumentedResult run_instrumented(const StreamNode& node, std::span<const Tuple> tuples,
                                    const std::vector<Tuple>* front_filter_entries) {
  ReplayTables tables;
  return replay_instrumented(node, tuples, front_filter_entries, tables);
}

CostEstimator::CostEstimator(const query::Query& q, const std::vector<TupleWindow>& windows,
                             std::vector<int> ip_levels, std::vector<int> dns_levels,
                             double relax_margin)
    : query_(&q), windows_(&windows), relax_margin_(relax_margin) {
  const auto sources = q.sources();
  relaxed_.resize(sources.size());
  refinable_ = q.refinable() && !sources.empty();
  for (const auto* src : sources) {
    std::optional<RefinementKey> key;
    if (const auto found = find_refinement_key(*src)) {
      key = found;
    } else if (q.root()->kind == query::StreamNode::Kind::kJoin) {
      // Raw-packet sources of a join refine on the join key.
      for (const auto& jk : q.root()->join_keys) {
        if ((key = trace_refinement_key(*src, jk))) break;
      }
    }
    if (!key) {
      refinable_ = false;
      break;
    }
    keys_.push_back(std::move(*key));
  }
  if (refinable_) {
    // All sources must share one key kind (one chain per query, §4.2).
    for (const auto& k : keys_) refinable_ = refinable_ && k.is_dns == keys_.front().is_dns;
  }
  if (!refinable_) {
    keys_.clear();
    keys_.resize(sources.size());  // placeholders; never used
    levels_ = {kFinestIpLevel};
    thresholds_built_ = true;
    return;
  }
  const bool dns = keys_.front().is_dns;
  levels_ = normalize_levels(dns ? std::move(dns_levels) : std::move(ip_levels),
                             dns ? kFinestDnsLevel : kFinestIpLevel);
}

void CostEstimator::require(const std::vector<int>& chain) {
  const auto sources = query_->sources();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const bool stateful_src = has_stateful_op(*sources[s]);
    int prev = kNoPrevLevel;
    for (const int level : chain) {
      if (stateful_src || level == chain.back()) {
        const TransitionKey key{static_cast<int>(s), prev, level};
        if (!costs_.contains(key)) wanted_.insert(key);
      }
      prev = level;
    }
  }
}

std::optional<std::uint64_t> CostEstimator::relaxed(int source, int level) const {
  const auto& m = relaxed_.at(static_cast<std::size_t>(source));
  const auto it = m.find(level);
  if (it == m.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> CostEstimator::relaxed_threshold(int source, int level) {
  if (!thresholds_built_) {
    CostEstimator* self = this;
    build_estimators({&self, 1});
  }
  return relaxed(source, level);
}

const TransitionCost& CostEstimator::transition(int source, int prev, int level) {
  const TransitionKey key{source, prev, level};
  auto it = costs_.find(key);
  if (it == costs_.end()) {
    wanted_.insert(key);
    CostEstimator* self = this;
    build_estimators({&self, 1});
    it = costs_.find(key);
  }
  return it->second;
}

const std::vector<Tuple>& CostEstimator::winners(int level, std::size_t w) {
  auto it = winners_.find(level);
  if (it == winners_.end()) {
    wanted_winners_.insert(level);
    CostEstimator* self = this;
    build_estimators({&self, 1});
    it = winners_.find(level);
  }
  return it->second.at(w);
}

// One build_estimators() call: the three rounds over a set of estimators.
class EstimatorBuild {
 public:
  explicit EstimatorBuild(std::span<CostEstimator* const> estimators) {
    for (CostEstimator* e : estimators) {
      if (!e->thresholds_built_) plan_thresholds(*e);
      for (const auto& [source, prev, level] : e->wanted_) {
        if (prev != kNoPrevLevel) e->wanted_winners_.insert(prev);
      }
      for (const int level : e->wanted_winners_) {
        if (!e->winners_.contains(level)) winner_sets_.push_back({e, level, nullptr, {}});
      }
      for (const auto& key : e->wanted_) {
        if (!e->costs_.contains(key)) transitions_.push_back({e, key, nullptr, nullptr, {}});
      }
      e->wanted_.clear();
      e->wanted_winners_.clear();
    }
  }

  void run() {
    relax_rows();
    relax_thresholds();
    build_winners();
    build_transitions();
  }

 private:
  // Round 1 state of one estimator.
  struct Relax {
    CostEstimator* est = nullptr;
    std::optional<std::size_t> out_idx;  // the key column in the query's output
    // Sources with a trailing threshold filter and a fine key column.
    std::vector<std::size_t> sources;
    std::vector<std::size_t> fine_kidx;  // per entry of `sources`
    std::vector<std::vector<query::Value>> satisfying;  // [window]
    // Rows of each source's original chain: [source entry][window], then
    // only those whose key satisfies the query, without the aggregate.
    std::vector<std::vector<std::vector<Tuple>>> fine;
  };
  struct WinnerSet {
    CostEstimator* est;
    int level;
    const query::Query* query;  // in winner_queries_
    std::optional<std::size_t> out_idx;
  };
  struct Transition {
    CostEstimator* est;
    CostEstimator::TransitionKey key;
    const StreamNode* node;
    const std::vector<std::vector<Tuple>>* entries;  // winners of prev, per window
    std::shared_ptr<StreamNode> refined;
  };

  // A round on min(available cores, tasks) threads; `task(i, slot)` gets
  // slot < slots(count).
  static std::size_t slots(std::size_t count) {
    return std::max<std::size_t>(1, std::min(util::available_cores(), count));
  }
  static void run_tasks(std::size_t count, const util::Task& task) {
    if (count == 0) return;
    util::TaskPool pool(slots(count) - 1);
    pool.run(count, task);
  }

  void plan_thresholds(CostEstimator& e) {
    e.thresholds_built_ = true;
    Relax r;
    r.est = &e;
    // Without the key column in the query's output no key satisfies it,
    // and nothing is relaxed.
    r.out_idx = e.query_->root()->output_schema().index_of(e.keys_.front().key_column);
    if (!r.out_idx) return;
    const auto sources = e.query_->sources();
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const auto& ops = sources[s]->ops;
      for (std::size_t i = ops.size(); i-- > 0;) {
        if (ops[i].kind != OpKind::kReduce) continue;
        if (pisa::foldable_threshold(*sources[s], i + 1)) {
          const query::Schema& fine_schema = sources[s]->schemas[i + 1];
          if (const auto kidx = fine_schema.index_of(e.keys_[s].key_column)) {
            r.sources.push_back(s);
            r.fine_kidx.push_back(*kidx);
          }
        }
        break;
      }
    }
    if (r.sources.empty()) return;
    r.satisfying.resize(e.window_count());
    r.fine.assign(r.sources.size(), std::vector<std::vector<Tuple>>(e.window_count()));
    relax_.push_back(std::move(r));
  }

  // Round 1, first step: per (query, window) the satisfying keys (the
  // original query end to end), and per (query, source, window) the rows of
  // the source's original chain up to and including its threshold filter.
  // Then, serially, keep the rows whose key satisfies the query.
  void relax_rows() {
    struct Task {
      Relax* r;
      std::size_t entry;  // source entry, or kSatisfying
      std::size_t w;
    };
    constexpr std::size_t kSatisfying = ~std::size_t{0};
    std::vector<Task> tasks;
    for (Relax& r : relax_) {
      for (std::size_t w = 0; w < r.est->window_count(); ++w) {
        tasks.push_back({&r, kSatisfying, w});
        for (std::size_t i = 0; i < r.sources.size(); ++i) tasks.push_back({&r, i, w});
      }
    }
    run_tasks(tasks.size(), [&](std::size_t i, std::size_t) {
      const Task& t = tasks[i];
      const CostEstimator& e = *t.r->est;
      const TupleWindow& window = (*e.windows_)[t.w];
      if (t.entry == kSatisfying) {
        stream::QueryExecutor exec(*e.query_);
        for (const Tuple& tuple : window) exec.ingest_source_tuple(tuple);
        for (const Tuple& out : exec.end_window()) {
          t.r->satisfying[t.w].push_back(out.at(*t.r->out_idx));
        }
        return;
      }
      stream::ChainExecutor chain(*e.query_->sources()[t.r->sources[t.entry]]);
      for (const Tuple& tuple : window) chain.ingest_view(tuple, 0);
      t.r->fine[t.entry][t.w] = chain.end_window();
    });
    for (Relax& r : relax_) {
      for (std::size_t w = 0; w < r.satisfying.size(); ++w) {
        util::FlatSet sat;
        sat.reserve(r.satisfying[w].size());
        for (const auto& v : r.satisfying[w]) sat.insert(Tuple{{v}});
        for (std::size_t i = 0; i < r.sources.size(); ++i) {
          std::vector<Tuple>& rows = r.fine[i][w];
          std::erase_if(rows, [&](const Tuple& out) {
            return !sat.contains(Tuple{{out.at(r.fine_kidx[i])}});
          });
          // Keep the full reduce key (all columns except the aggregate).
          for (Tuple& row : rows) row.values.pop_back();
        }
      }
    }
  }

  // Round 1, second step: for each thresholded source and coarse level, the
  // minimum coarse aggregate over the coarsened versions of the fine rows
  // that both passed the source's own threshold and belong to a key
  // satisfying the full query. Matching the full reduce-key tuple (not just
  // the hierarchical component) matters for multi-key reduces like Zorro's
  // (dIP, size-bucket): relaxing to the victim's rarest bucket would let
  // every prefix through.
  void relax_thresholds() {
    struct Coarse {
      Relax* r;
      std::size_t entry;
      int level;
      std::shared_ptr<StreamNode> node;  // refined, truncated at its reduce
      std::size_t kidx;
    };
    struct Task {
      const Coarse* c;
      std::size_t w;
      std::optional<std::uint64_t> min_agg;
    };
    std::deque<Coarse> coarse;
    std::vector<Task> tasks;
    for (Relax& r : relax_) {
      const CostEstimator& e = *r.est;
      const auto sources = e.query_->sources();
      for (std::size_t i = 0; i < r.sources.size(); ++i) {
        const std::size_t s = r.sources[i];
        for (std::size_t li = 0; li + 1 < e.levels_.size(); ++li) {  // skip finest
          RefineOptions opts;
          opts.level = e.levels_[li];
          auto node = truncated_at_reduce(make_refined_node(*sources[s], e.keys_[s], opts));
          const auto kidx = node->output_schema().index_of(e.keys_[s].key_column);
          coarse.push_back({&r, i, opts.level, std::move(node), kidx.value_or(0)});
          if (!kidx) continue;
          for (std::size_t w = 0; w < e.window_count(); ++w) {
            if (!r.fine[i][w].empty()) tasks.push_back({&coarse.back(), w, std::nullopt});
          }
        }
      }
    }
    run_tasks(tasks.size(), [&](std::size_t i, std::size_t) {
      Task& t = tasks[i];
      const Coarse& c = *t.c;
      const CostEstimator& e = *c.r->est;
      const RefinementKey& key = e.keys_[c.r->sources[c.entry]];
      util::FlatSet coarse_satisfying;
      coarse_satisfying.reserve(c.r->fine[c.entry][t.w].size());
      for (const Tuple& row : c.r->fine[c.entry][t.w]) {
        coarse_satisfying.insert(coarsen_key(key, row, c.kidx, c.level));
      }
      stream::ChainExecutor chain(*c.node);
      for (const Tuple& tuple : (*e.windows_)[t.w]) chain.ingest_view(tuple, 0);
      for (Tuple& out : chain.end_window()) {
        const std::uint64_t agg = out.values.back().as_uint();
        out.values.pop_back();  // the full key
        if (!coarse_satisfying.contains(out)) continue;
        t.min_agg = t.min_agg ? std::min(*t.min_agg, agg) : agg;
      }
    });
    // Minimum over windows, in task order (per coarse entry, ascending
    // windows), then scaled by the margin so live windows with a little
    // less traffic than training still pass (and -1 so the training
    // minimum itself passes the strict `>`).
    std::size_t next = 0;
    for (const Coarse& c : coarse) {
      std::optional<std::uint64_t> min_agg;
      for (; next < tasks.size() && tasks[next].c == &c; ++next) {
        const auto& m = tasks[next].min_agg;
        if (m) min_agg = min_agg ? std::min(*min_agg, *m) : *m;
      }
      if (!min_agg) continue;
      CostEstimator& e = *c.r->est;
      const auto scaled =
          static_cast<std::uint64_t>(static_cast<double>(*min_agg) * e.relax_margin_);
      e.relaxed_[c.r->sources[c.entry]][c.level] = scaled > 0 ? scaled - 1 : 0;
    }
  }

  // Round 2: each winner query (built serially from the relaxed
  // thresholds) over each window; the deduplicated output keys.
  void build_winners() {
    std::vector<std::pair<WinnerSet*, std::size_t>> tasks;  // (set, window)
    for (WinnerSet& ws : winner_sets_) {
      CostEstimator& e = *ws.est;
      const auto sources = e.query_->sources();
      std::vector<std::shared_ptr<StreamNode>> per_source;
      for (std::size_t s = 0; s < sources.size(); ++s) {
        if (!has_stateful_op(*sources[s])) {
          per_source.push_back(nullptr);  // raw sources run at the finest level only
          continue;
        }
        RefineOptions opts;
        opts.level = ws.level;
        opts.relaxed_threshold = e.relaxed(static_cast<int>(s), ws.level);
        per_source.push_back(make_refined_node(*sources[s], e.keys_.at(s), opts));
      }
      ws.query = &winner_queries_.emplace_back(make_winner_query(*e.query_, ws.level, per_source));
      ws.out_idx = ws.query->root()->output_schema().index_of(e.keys_.front().key_column);
      e.winners_[ws.level].resize(e.window_count());
      for (std::size_t w = 0; w < e.window_count(); ++w) tasks.emplace_back(&ws, w);
    }
    run_tasks(tasks.size(), [&](std::size_t i, std::size_t) {
      const auto [ws, w] = tasks[i];
      const CostEstimator& e = *ws->est;
      std::vector<Tuple>& out_keys = ws->est->winners_.find(ws->level)->second[w];
      stream::QueryExecutor exec(*ws->query);
      for (const Tuple& t : (*e.windows_)[w]) exec.ingest_source_tuple(t);
      const std::vector<Tuple> outputs = exec.end_window();
      if (!ws->out_idx) return;
      util::FlatSet dedup;
      for (const Tuple& out : outputs) {
        Tuple kt{{out.at(*ws->out_idx)}};
        if (dedup.insert(kt)) out_keys.push_back(std::move(kt));
      }
    });
  }

  // Round 3: each transition's (refined) node over each window, behind the
  // previous level's winners; then, serially, the medians.
  void build_transitions() {
    for (Transition& tr : transitions_) {
      CostEstimator& e = *tr.est;
      const auto [source, prev, level] = tr.key;
      const StreamNode& src = *e.query_->sources().at(static_cast<std::size_t>(source));
      if (e.refinable_) {
        RefineOptions opts;
        opts.level = level;
        opts.prev_level = prev;
        opts.filter_table_name = "est";
        opts.relaxed_threshold = e.relaxed(source, level);
        tr.refined = make_refined_node(src, e.keys_.at(static_cast<std::size_t>(source)), opts);
      }
      tr.node = tr.refined ? tr.refined.get() : &src;
      if (prev != kNoPrevLevel) tr.entries = &e.winners_.at(prev);
    }
    // Chain heads replay every tuple through every operator; refined
    // transitions stop most tuples at their filter_in. Queue heads first so
    // the longest tasks start first.
    std::vector<std::pair<const Transition*, std::size_t>> tasks;  // (transition, window)
    std::vector<std::size_t> first(transitions_.size());  // each transition's first task
    for (const bool heads : {true, false}) {
      for (std::size_t ti = 0; ti < transitions_.size(); ++ti) {
        const Transition& tr = transitions_[ti];
        if ((tr.entries == nullptr) != heads) continue;
        first[ti] = tasks.size();
        for (std::size_t w = 0; w < tr.est->window_count(); ++w) tasks.emplace_back(&tr, w);
      }
    }
    std::vector<InstrumentedResult> results(tasks.size());
    std::vector<ReplayTables> tables(slots(tasks.size()));
    run_tasks(tasks.size(), [&](std::size_t i, std::size_t slot) {
      const auto [tr, w] = tasks[i];
      const std::vector<Tuple>* entries = tr->entries ? &(*tr->entries)[w] : nullptr;
      results[i] = replay_instrumented(*tr->node, (*tr->est->windows_)[w], entries, tables[slot]);
    });
    for (std::size_t ti = 0; ti < transitions_.size(); ++ti) {
      const Transition& tr = transitions_[ti];
      std::vector<std::vector<std::uint64_t>> n_samples(tr.node->ops.size() + 1);
      std::map<std::size_t, std::vector<std::uint64_t>> key_samples;
      for (std::size_t w = 0; w < tr.est->window_count(); ++w) {
        const InstrumentedResult& run = results[first[ti] + w];
        for (std::size_t k = 0; k < run.n_after.size(); ++k) n_samples[k].push_back(run.n_after[k]);
        for (const auto& [op, keys] : run.stateful_keys) key_samples[op].push_back(keys);
      }
      TransitionCost cost;
      cost.n_after.reserve(n_samples.size());
      for (auto& s : n_samples) cost.n_after.push_back(util::median_u64(s));
      for (auto& [op, s] : key_samples) cost.stateful_keys[op] = util::median_u64(s);
      tr.est->costs_.emplace(tr.key, std::move(cost));
    }
  }

  std::deque<Relax> relax_;
  std::vector<WinnerSet> winner_sets_;
  std::deque<query::Query> winner_queries_;
  std::vector<Transition> transitions_;
};

void build_estimators(std::span<CostEstimator* const> estimators) {
  EstimatorBuild build(estimators);
  build.run();
}

}  // namespace sonata::planner
