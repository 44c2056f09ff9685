#include "planner/install.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#include "pisa/compile.h"
#include "util/rng.h"

namespace sonata::planner {

using pisa::ProgramResources;
using pisa::RegisterSizing;
using query::Query;
using query::StreamNode;

namespace {

std::size_t pow2_at_least(std::size_t n) { return std::bit_ceil(std::max<std::size_t>(n, 1)); }

// Enumerate increasing chains over `levels` (finest = levels.back()), each
// ending at the finest level, of length <= max_len.
std::vector<std::vector<int>> enumerate_chains(const std::vector<int>& levels, int max_len) {
  std::vector<std::vector<int>> chains;
  const std::size_t coarse = levels.size() - 1;  // all but finest
  const std::size_t subsets = std::size_t{1} << coarse;
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<int> chain;
    for (std::size_t i = 0; i < coarse; ++i) {
      if (mask & (std::size_t{1} << i)) chain.push_back(levels[i]);
    }
    chain.push_back(levels.back());
    if (static_cast<int>(chain.size()) <= max_len) chains.push_back(std::move(chain));
  }
  // Prefer shorter chains at equal cost (less detection delay).
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  return chains;
}

}  // namespace

std::string filter_table_name(query::QueryId qid, int source, int level) {
  return "q" + std::to_string(qid) + ".s" + std::to_string(source) + ".L" +
         std::to_string(level) + ".ref";
}

ChainInstaller::ChainInstaller(const PlannerConfig& cfg, const Query& q,
                               const std::vector<TupleWindow>& windows,
                               std::uint64_t window_packets)
    : cfg_(&cfg),
      q_(&q),
      owned_(std::make_unique<CostEstimator>(q, windows, cfg.ip_levels, cfg.dns_levels,
                                             cfg.relax_margin)),
      est_(owned_.get()),
      window_packets_(window_packets) {
  for (const auto& chain : chains()) est_->require(chain);
}

ChainInstaller::ChainInstaller(const PlannerConfig& cfg, const Query& q, CostEstimator* est,
                               std::uint64_t window_packets)
    : cfg_(&cfg), q_(&q), est_(est), window_packets_(window_packets) {
  assert(est_ != nullptr);
  for (const auto& chain : chains()) est_->require(chain);
}

std::vector<std::vector<int>> ChainInstaller::chains() {
  if (!est_->refinable()) return {{est_->finest_level()}};
  switch (cfg_->mode) {
    case PlanMode::kAllSP:
    case PlanMode::kFilterDP:
    case PlanMode::kMaxDP:
      return {{est_->finest_level()}};
    case PlanMode::kFixRef:
      return {est_->levels()};
    case PlanMode::kSonata:
      return enumerate_chains(est_->levels(), cfg_->max_delay_windows);
  }
  return {{est_->finest_level()}};
}

std::uint64_t ChainInstaller::optimistic_cost(const std::vector<int>& chain) {
  const auto sources = q_->sources();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const bool stateful_src = has_stateful_op(*sources[s]);
    int prev = kNoPrevLevel;
    for (const int level : chain) {
      // Raw sources (no stateful ops) execute at the finest level only
      // (winner-query semantics; see make_winner_query).
      if (!stateful_src && level != chain.back()) {
        prev = level;
        continue;
      }
      const TransitionCost& cost = est_->transition(static_cast<int>(s), prev, level);
      const std::size_t max_p = candidate(static_cast<int>(s), prev, level).max_partition;
      total += max_p > 0 ? cost.n_after[max_p] : 0;
      prev = level;
    }
  }
  return total;
}

std::shared_ptr<StreamNode> ChainInstaller::refined_node(int source, int prev, int level) {
  const auto sources = q_->sources();
  if (!est_->refinable()) {
    // Unrefined: share a validated copy of the original source chain.
    return std::make_shared<StreamNode>(*sources.at(static_cast<std::size_t>(source)));
  }
  RefineOptions opts;
  opts.level = level;
  opts.prev_level = prev;
  opts.filter_table_name = filter_table_name(q_->id(), source, level);
  opts.relaxed_threshold = est_->relaxed_threshold(source, level);
  return make_refined_node(*sources.at(static_cast<std::size_t>(source)),
                           est_->keys().at(static_cast<std::size_t>(source)), opts);
}

ChainInstaller::Candidate& ChainInstaller::candidate(int source, int prev, int level) {
  const auto key = std::make_tuple(source, prev, level);
  const auto it = candidates_.find(key);
  if (it != candidates_.end()) return it->second;

  Candidate c;
  c.node = refined_node(source, prev, level);
  c.max_partition = pisa::max_switch_prefix(*c.node);
  if (prev != kNoPrevLevel) c.filter_table = filter_table_name(q_->id(), source, level);
  c.programs.resize(c.max_partition + 1);

  // Register sizing for every stateful op in the (potential) prefix:
  // target headroom * training keys, capped by the per-register memory
  // limit. A capped register overflows some keys; those keys' packets are
  // priced into the partition cost (overflow_extra).
  const Query& q = *q_;
  const StreamNode& node = *c.node;
  const TransitionCost& cost = est_->transition(source, prev, level);
  for (const auto& [op_idx, keys] : cost.stateful_keys) {
    const int entry_bits = pisa::stateful_key_bits(node, op_idx) +
                           (node.ops[op_idx].kind == query::OpKind::kDistinct ? 1 : 32);
    RegisterSizing rs;
    rs.depth = cfg_->register_depth;
    std::size_t cap = 1;
    while (cap * 2 * static_cast<std::uint64_t>(entry_bits) <=
           cfg_->switch_config.max_bits_per_register) {
      cap *= 2;
    }
    if (q.state_spec().sketch() && node.ops[op_idx].kind == query::OpKind::kReduce) {
      // Sketched reduce: HashPipe-backed registers are sized from the
      // accuracy target, not the training cardinality — O(1/eps) slots
      // catch every key heavier than eps * total weight regardless of
      // how many distinct keys the window carries. HashPipe never
      // overflows to the SP (evictions surface as a reported error
      // bound), so no overflow_extra is priced in.
      rs.sketch = true;
      rs.depth = std::max(cfg_->register_depth, 2);  // d-stage pipeline
      const double eps = std::max(q.state_spec().eps, 1e-6);
      const std::size_t want = pow2_at_least(
          std::max(cfg_->min_register_entries, static_cast<std::size_t>(2.0 / eps)));
      rs.entries = std::min(want, cap);
      c.sizing[op_idx] = rs;
      continue;
    }
    const std::size_t want = pow2_at_least(std::max(
        cfg_->min_register_entries,
        static_cast<std::size_t>(cfg_->register_headroom * static_cast<double>(keys))));
    rs.entries = std::min(want, cap);
    c.sizing[op_idx] = rs;
    if (rs.entries < want && keys > 0) {
      const std::uint64_t lost = estimate_overflow_keys(keys, rs.entries, rs.depth);
      // Every packet of an overflowed key reaches the SP; assume the
      // average packets-per-key of the operator's input.
      const std::uint64_t pkts_in = op_idx < cost.n_after.size() ? cost.n_after[op_idx] : 0;
      c.overflow_extra[op_idx] = lost * (pkts_in / keys);
    }
  }
  return candidates_.emplace(key, std::move(c)).first->second;
}

const ProgramResources& ChainInstaller::program(Candidate& c, std::size_t partition, int source,
                                                int level) {
  auto& slot = c.programs.at(partition);
  if (!slot) {
    slot = pisa::build_resources(*c.node, partition, c.sizing, q_->id(), source, level);
  }
  return *slot;
}

const ProgramResources& ChainInstaller::program(const PlannedPipeline& p) {
  assert(p.partition > 0);
  return program(candidate(p.source_index, p.prev_level, p.level), p.partition, p.source_index,
                 p.level);
}

// Partition choices to try, best (deepest) first, honoring mode limits.
std::vector<std::size_t> ChainInstaller::partition_choices(const StreamNode& node,
                                                           std::size_t max_p,
                                                           bool force_all_sp) const {
  if (force_all_sp) return {0};
  switch (cfg_->mode) {
    case PlanMode::kAllSP:
      return {0};
    case PlanMode::kFilterDP: {
      // Longest prefix of filter/filter_in operators only.
      std::size_t p = 0;
      while (p < max_p && (node.ops[p].kind == query::OpKind::kFilter ||
                           node.ops[p].kind == query::OpKind::kFilterIn)) {
        ++p;
      }
      std::vector<std::size_t> out;
      for (std::size_t k = p + 1; k-- > 0;) out.push_back(k);
      return out;
    }
    default: {
      std::vector<std::size_t> out;
      for (std::size_t k = max_p + 1; k-- > 0;) out.push_back(k);
      return out;
    }
  }
}

// The collision-overflow model used when a register must be sized below
// the planner's target (paper §3.3 "Monitoring traffic dynamics": n and d
// are chosen to keep collision rates low; overflow packets are corrected at
// the SP and therefore priced into the objective). The RNG is seeded by the
// exact `k`, so the estimate never depends on which key counts were priced
// before; callers memoize it per pipeline (ChainInstaller::Candidate).
std::uint64_t estimate_overflow_keys(std::uint64_t k, std::size_t n, int d) {
  if (k == 0) return 0;
  const util::HashFamily hashes(static_cast<std::size_t>(d));
  std::vector<std::vector<bool>> occupied(static_cast<std::size_t>(d),
                                          std::vector<bool>(n, false));
  util::Rng rng(0xc0111de + k);
  std::uint64_t overflowed = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t key = rng();
    bool stored = false;
    for (std::size_t di = 0; di < occupied.size() && !stored; ++di) {
      auto slot = occupied[di].begin() + static_cast<std::ptrdiff_t>(hashes.index(di, key, n));
      // Distinct keys only collide with *other* keys here (random keys
      // are unique w.h.p.), matching the exact-key-store semantics.
      if (!*slot) {
        *slot = true;
        stored = true;
      }
    }
    overflowed += stored ? 0 : 1;
  }
  return overflowed;
}

std::optional<Installed> ChainInstaller::install(const std::vector<int>& chain,
                                                 pisa::StagePacker& packer, bool raw_already,
                                                 bool force_all_sp, const InstallLimits& limits) {
  const Query& q = *q_;
  const auto sources = q.sources();
  const std::size_t mark = packer.size();

  Installed inst;
  inst.pq.base = &q;
  inst.pq.refined = est_->refinable() && chain.size() > 1;
  inst.pq.chain = chain;
  if (est_->refinable()) inst.pq.keys = est_->keys();

  for (std::size_t s = 0; s < sources.size(); ++s) {
    const int source = static_cast<int>(s);
    const bool stateful_src = has_stateful_op(*sources[s]);
    int prev = kNoPrevLevel;
    for (const int level : chain) {
      if (!stateful_src && level != chain.back()) {
        prev = level;  // raw sources join in at the finest level only
        continue;
      }
      Candidate& c = candidate(source, prev, level);
      const TransitionCost& cost = est_->transition(source, prev, level);

      // Cheapest feasible partition (cost = reported tuples + overflow
      // penalty of on-switch stateful ops; partition 0 costs the shared
      // raw mirror once). Feasible = fits the stage layout AND stays
      // within the install's remaining table/register-bit limits.
      // minimize_footprint flips the objective: smallest feasible
      // partition, resources before cost.
      bool placed = false;
      std::uint64_t best_cost = ~std::uint64_t{0};
      std::size_t best_p = 0;
      auto choices = partition_choices(*c.node, c.max_partition, force_all_sp);
      if (limits.minimize_footprint) std::reverse(choices.begin(), choices.end());
      for (const std::size_t p : choices) {
        std::uint64_t contribution;
        if (p == 0) {
          if (!limits.allow_mirror) continue;
          contribution = (raw_already || inst.raw) ? 0 : window_packets_;
        } else {
          const ProgramResources& pr = program(c, p, source, level);
          if (inst.footprint.tables + pr.tables.size() > limits.max_tables ||
              inst.footprint.register_bits + pr.total_register_bits() >
                  limits.max_register_bits) {
            continue;
          }
          if (!packer.push(pr)) continue;
          packer.truncate(packer.size() - 1);
          contribution = p < cost.n_after.size() ? cost.n_after[p] : 0;
          for (const auto& [op_idx, extra] : c.overflow_extra) {
            if (op_idx < p) contribution += extra;
          }
        }
        if (limits.minimize_footprint) {
          best_cost = contribution;
          best_p = p;
          placed = true;
          break;  // choices are smallest-first here: take the first feasible
        }
        if (contribution < best_cost) {
          best_cost = contribution;
          best_p = p;
          placed = true;
        }
      }
      if (!placed) {
        packer.truncate(mark);
        return std::nullopt;
      }

      PlannedPipeline pipeline;
      pipeline.qid = q.id();
      pipeline.source_index = source;
      pipeline.level = level;
      pipeline.prev_level = prev;
      pipeline.node = c.node;
      pipeline.partition = best_p;
      pipeline.sizing = c.sizing;
      pipeline.filter_table = c.filter_table;
      if (best_p == 0) {
        pipeline.est_tuples = 0;  // covered by the shared raw mirror
        inst.raw = true;
      } else {
        pipeline.est_tuples = best_cost;
        inst.n += best_cost;
        const ProgramResources& pr = program(c, best_p, source, level);
        inst.footprint.tables += pr.tables.size();
        inst.footprint.register_bits += pr.total_register_bits();
        const bool fits = packer.push(pr);
        assert(fits);
        (void)fits;
      }
      inst.pq.pipelines.push_back(std::move(pipeline));
      prev = level;
    }
  }
  inst.pq.est_tuples = inst.n;
  return inst;
}

Plan assemble_plan(const PlannerConfig& cfg, std::vector<PlannedQuery> queries,
                   bool raw_mirror, std::uint64_t window_packets, std::uint64_t objective) {
  Plan plan;
  plan.switch_config = cfg.switch_config;
  plan.mode = cfg.mode;
  plan.window = cfg.window;
  plan.queries = std::move(queries);
  for (const auto& pq : plan.queries) {
    for (const auto& p : pq.pipelines) {
      if (p.partition == 0) continue;
      plan.resources.push_back(pisa::build_resources(*p.node, p.partition, p.sizing, p.qid,
                                                     p.source_index, p.level));
    }
  }
  plan.raw_mirror = raw_mirror;
  plan.est_window_packets = window_packets;
  plan.est_total_tuples = objective;
  plan.layout = pisa::assign_stages(cfg.switch_config, plan.resources);

  // Executable per-level queries. Coarse levels get the winner query
  // (stateful sub-queries only, no post-join operators); the finest level
  // gets the full tree. Both substitute the chosen pipelines' augmented
  // nodes so SP execution matches the switch programs exactly.
  for (std::size_t qi = 0; qi < plan.queries.size(); ++qi) {
    auto& pq = plan.queries[qi];
    pq.exec_queries.clear();  // stale from a previous assembly of this placement
    pq.source_remap.clear();
    const auto base_sources = pq.base->sources();
    for (const int level : pq.chain) {
      const bool finest = level == pq.chain.back();
      std::vector<std::shared_ptr<StreamNode>> per_source(base_sources.size());
      for (const auto& p : pq.pipelines) {
        if (p.level == level) {
          per_source.at(static_cast<std::size_t>(p.source_index)) = p.node;
        }
      }
      std::vector<int> remap(base_sources.size(), -1);
      if (finest) {
        int counter = 0;
        std::function<query::StreamNodePtr(const StreamNode&)> clone =
            [&](const StreamNode& node) -> query::StreamNodePtr {
          if (node.kind == StreamNode::Kind::kSource) {
            return per_source.at(static_cast<std::size_t>(counter++));
          }
          auto out = std::make_shared<StreamNode>();
          out->kind = StreamNode::Kind::kJoin;
          out->join_keys = node.join_keys;
          out->left = clone(*node.left);
          out->right = clone(*node.right);
          out->ops = node.ops;
          return out;
        };
        Query exec(pq.base->name() + "@L" + std::to_string(level), pq.base->id(),
                   pq.base->window(), clone(*pq.base->root()));
        exec.set_state_spec(pq.base->state_spec());
        const std::string err = exec.validate();
        assert(err.empty());
        (void)err;
        pq.exec_queries.emplace(level, std::move(exec));
        for (std::size_t s = 0; s < remap.size(); ++s) remap[s] = static_cast<int>(s);
      } else {
        // Winner query: per_source is null exactly for raw sources.
        pq.exec_queries.emplace(level, make_winner_query(*pq.base, level, per_source));
        int next = 0;
        for (std::size_t s = 0; s < remap.size(); ++s) {
          remap[s] = per_source[s] ? next++ : -1;
        }
      }
      pq.source_remap.emplace(level, std::move(remap));
    }
  }
  return plan;
}

}  // namespace sonata::planner
