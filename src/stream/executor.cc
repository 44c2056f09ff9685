#include "stream/executor.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace sonata::stream {

namespace {
// One process-wide counter across every chain: total tuples the stream
// processor side ingested (all queries, all entry points).
obs::Counter& stream_tuples_counter() {
  static obs::Counter& c = obs::Registry::global().counter("sonata_stream_tuples_total");
  return c;
}

// SP-side keyed-state histograms, mirroring the switch's probe-depth and
// occupancy metrics so operators can compare SP vs switch collision
// behaviour. Published once per window from each chain's tables.
obs::Histogram& sp_probe_depth_histogram() {
  static constexpr std::uint64_t kBounds[] = {1, 2, 3, 4, 6, 8};
  static obs::Histogram& h =
      obs::Registry::global().histogram("sonata_sp_probe_depth", kBounds);
  return h;
}

obs::Histogram& sp_table_load_histogram() {
  // Load factor in percent at window close (flat tables grow at 7/8 = 87).
  static constexpr std::uint64_t kBounds[] = {10, 25, 50, 75, 90};
  static obs::Histogram& h =
      obs::Registry::global().histogram("sonata_sp_table_load", kBounds);
  return h;
}

// Drain one flat table's probe tally into the shared histogram and record
// its closing load factor.
template <typename Table>
void publish_one_table(Table& table, obs::Histogram& probes, obs::Histogram& load) {
  std::uint64_t tally[Table::kProbeTallyMax + 1];
  table.drain_probe_tally(tally);
  for (std::size_t d = 1; d <= Table::kProbeTallyMax; ++d) {
    if (tally[d] != 0) probes.observe_n(d, tally[d]);
  }
  if (!table.empty()) {
    load.observe(static_cast<std::uint64_t>(table.load_factor() * 100.0));
  }
}
}  // namespace

using query::OpKind;
using query::Operator;
using query::Schema;
using query::StreamNode;
using query::Tuple;

ChainExecutor::ChainExecutor(const StreamNode& node, const query::StateSpec& spec)
    : node_(node) {
  assert(node_.schemas.size() == node_.ops.size() + 1);
  ops_.reserve(node_.ops.size());
  for (std::size_t i = 0; i < node_.ops.size(); ++i) {
    const Operator& op = node_.ops[i];
    const Schema& in = node_.schemas[i];
    BoundOp bop;
    bop.kind = op.kind;
    switch (op.kind) {
      case OpKind::kFilter:
        bop.pred = op.predicate->bind(in);
        break;
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) bop.match.push_back(m->bind(in));
        bop.table_name = op.table_name;
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) bop.projections.push_back(p.expr->bind(in));
        break;
      case OpKind::kDistinct:
        bop.seen.configure(spec);
        break;
      case OpKind::kReduce: {
        for (const auto& k : op.keys) {
          const auto idx = in.index_of(k);
          assert(idx);
          bop.key_idx.push_back(*idx);
        }
        const auto vidx = in.index_of(op.value_col);
        assert(vidx);
        bop.value_idx = *vidx;
        bop.fn = op.fn;
        bop.agg.configure(spec, op.fn);
        break;
      }
    }
    ops_.push_back(std::move(bop));
  }
}

void ChainExecutor::ingest(Tuple t, std::size_t entry) {
  ++ingested_;
  process(std::move(t), entry);
}

void ChainExecutor::ingest_batch(std::span<Tuple> ts, std::size_t entry) {
  ingested_ += ts.size();
  for (Tuple& t : ts) process(std::move(t), entry);
}

bool ChainExecutor::passes_filter_in(BoundOp& op, const Tuple& t) {
  // The probe key is rebuilt into a reused scratch tuple (inline storage,
  // no allocation) and hashed exactly once: the flat table reuses the hash
  // for the group probe and the stored-hash compare.
  Tuple& key = op.probe_scratch;
  key.values.clear();
  for (const auto& m : op.match) key.values.push_back(m(t));
  return op.entries.contains(key, key.hash());
}

Tuple ChainExecutor::mapped(const BoundOp& op, const Tuple& t) {
  Tuple next;
  next.values.reserve(op.projections.size());
  for (const auto& p : op.projections) next.values.push_back(p(t));
  return next;
}

void ChainExecutor::fold(BoundOp& op, const Tuple& t) {
  Tuple key = query::project(t, op.key_idx);
  const std::uint64_t hash = key.hash();
  const std::uint64_t delta = t.at(op.value_idx).as_uint();
  op.agg.update(std::move(key), hash, delta);
}

void ChainExecutor::process(Tuple&& t, std::size_t i) {
  for (; i < ops_.size(); ++i) {
    BoundOp& op = ops_[i];
    switch (op.kind) {
      case OpKind::kFilter:
        if (op.pred(t).as_uint() == 0) return;
        break;
      case OpKind::kFilterIn:
        if (!passes_filter_in(op, t)) return;
        break;
      case OpKind::kMap:
        t = mapped(op, t);
        break;
      case OpKind::kDistinct:
        if (!op.seen.insert_new(t, t.hash())) return;  // duplicate within window
        break;
      case OpKind::kReduce:
        fold(op, t);
        return;  // consumed; flushed at window end
    }
  }
  pending_.push_back(std::move(t));
}

void ChainExecutor::ingest_view(const Tuple& t, std::size_t entry) {
  ++ingested_;
  for (std::size_t i = entry; i < ops_.size(); ++i) {
    BoundOp& op = ops_[i];
    switch (op.kind) {
      case OpKind::kFilter:
        if (op.pred(t).as_uint() == 0) return;
        break;
      case OpKind::kFilterIn:
        if (!passes_filter_in(op, t)) return;
        break;
      case OpKind::kMap:
        process(mapped(op, t), i + 1);  // the rest runs on the built row
        return;
      case OpKind::kDistinct:
        if (!op.seen.insert_new(t, t.hash())) return;
        break;
      case OpKind::kReduce:
        fold(op, t);
        return;
    }
  }
  pending_.push_back(t);
}

std::vector<Tuple> ChainExecutor::end_window() {
  // Publish the window's ingest tally to the registry in one add — the
  // per-tuple path keeps only the plain ingested_ increment (metrics.h:
  // single-writer loops publish once per window).
  if (obs::enabled()) {
    stream_tuples_counter().add(ingested_ - ingested_pub_);
    publish_table_obs();
  }
  ingested_pub_ = ingested_;
  // Flush reduces in ascending order: outputs of an earlier reduce flow into
  // later operators (possibly another reduce, flushed next). The drain walks
  // the dense entry array in insertion order — deterministic regardless of
  // probe order or capacity — and may move keys out in place: a reduce's
  // outputs only ever enter LATER operators, never its own table.
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    BoundOp& op = ops_[i];
    if (op.kind != OpKind::kReduce) continue;
    op.agg.drain_and_clear([&](Tuple&& key, std::uint64_t value) {
      Tuple out = std::move(key);
      out.values.emplace_back(value);
      process(std::move(out), i + 1);
    });
  }
  for (auto& op : ops_) {
    op.seen.clear();
    op.agg.clear();
  }
  std::vector<Tuple> out = std::move(pending_);
  pending_.clear();
  return out;
}

void ChainExecutor::publish_table_obs() {
  // Probe-depth + load-factor at window close, before the tables clear —
  // the SP-side analogue of Switch::publish_obs's register metrics. The
  // chain is single-writer, so the tallies drain without synchronization.
  obs::Histogram& probes = sp_probe_depth_histogram();
  obs::Histogram& load = sp_table_load_histogram();
  for (auto& op : ops_) {
    switch (op.kind) {
      case OpKind::kFilterIn:
        publish_one_table(op.entries.table(), probes, load);
        break;
      case OpKind::kDistinct:
        // Sketch engines have no probe loop; only exact tables tally.
        if (auto* set = op.seen.exact_set()) publish_one_table(set->table(), probes, load);
        break;
      case OpKind::kReduce:
        if (auto* map = op.agg.exact_map()) publish_one_table(*map, probes, load);
        break;
      default:
        break;
    }
  }
}

std::uint64_t ChainExecutor::stateful_entries() const noexcept {
  return state_usage().entries;
}

state::StateUsage ChainExecutor::state_usage() const noexcept {
  state::StateUsage u;
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kDistinct) {
      const auto ou = op.seen.usage();
      u.entries += ou.entries;
      u.bytes += ou.bytes;
      u.error_bound += ou.error_bound;
    } else if (op.kind == OpKind::kReduce) {
      const auto ou = op.agg.usage();
      u.entries += ou.entries;
      u.bytes += ou.bytes;
      u.error_bound += ou.error_bound;
    }
  }
  return u;
}

bool ChainExecutor::set_filter_entries(const std::string& table_name,
                                       std::vector<Tuple> entries) {
  bool found = false;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (node_.ops[i].kind == OpKind::kFilterIn && node_.ops[i].table_name == table_name) {
      ops_[i].entries.clear();
      ops_[i].entries.reserve(entries.size());
      for (auto& e : entries) ops_[i].entries.insert(std::move(e));
      found = true;
    }
  }
  return found;
}

NodeExecutor::NodeExecutor(const StreamNode& node, const query::StateSpec& spec)
    : node_(node), chain_(node, spec) {
  if (node.kind != StreamNode::Kind::kJoin) return;
  left_ = std::make_unique<NodeExecutor>(*node.left, spec);
  right_ = std::make_unique<NodeExecutor>(*node.right, spec);
  const Schema& ls = node_.left->output_schema();
  const Schema& rs = node_.right->output_schema();
  for (const auto& k : node_.join_keys) {
    lkeys_.push_back(*ls.index_of(k));
    rkeys_.push_back(*rs.index_of(k));
  }
  for (std::size_t i = 0; i < ls.size(); ++i) {
    if (std::find(lkeys_.begin(), lkeys_.end(), i) == lkeys_.end()) lrest_.push_back(i);
  }
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (std::find(rkeys_.begin(), rkeys_.end(), i) == rkeys_.end()) rrest_.push_back(i);
  }
}

std::vector<Tuple> NodeExecutor::end_window() {
  if (node_.kind == StreamNode::Kind::kJoin) {
    const std::vector<Tuple> lhs = left_->end_window();
    const std::vector<Tuple> rhs = right_->end_window();

    // Build on the right, probe with the left. The build key's hash is
    // computed once and cached in the flat table's slot; a repeated key
    // appends its row to the key's chain.
    constexpr std::uint32_t kEnd = ~std::uint32_t{0};
    join_index_.clear();
    join_index_.reserve(rhs.size());
    join_next_.assign(rhs.size(), kEnd);
    for (std::uint32_t r = 0; r < rhs.size(); ++r) {
      Tuple key = query::project(rhs[r], rkeys_);
      const std::uint64_t hash = key.hash();
      auto [rows, inserted] = join_index_.try_emplace(std::move(key), hash, {r, r});
      if (!inserted) {
        join_next_[rows->second] = r;
        rows->second = r;
      }
    }

    const std::size_t width = lkeys_.size() + lrest_.size() + rrest_.size();
    for (const auto& l : lhs) {
      const Tuple key = query::project(l, lkeys_);
      const auto* rows = join_index_.find(key, key.hash());
      if (rows == nullptr) continue;
      for (std::uint32_t r = rows->first; r != kEnd; r = join_next_[r]) {
        // Output layout must match validate_node(): keys, left non-keys,
        // right non-keys.
        Tuple joined;
        joined.values.reserve(width);
        for (std::size_t k : lkeys_) joined.values.push_back(l.at(k));
        for (std::size_t i : lrest_) joined.values.push_back(l.at(i));
        for (std::size_t i : rrest_) joined.values.push_back(rhs[r].at(i));
        chain_.ingest(std::move(joined), 0);
      }
    }
  }
  return chain_.end_window();
}

std::uint64_t NodeExecutor::stateful_entries() const noexcept {
  return state_usage().entries;
}

state::StateUsage NodeExecutor::state_usage() const noexcept {
  state::StateUsage u = chain_.state_usage();
  for (const NodeExecutor* child : {left_.get(), right_.get()}) {
    if (child == nullptr) continue;
    const auto cu = child->state_usage();
    u.entries += cu.entries;
    u.bytes += cu.bytes;
    u.error_bound += cu.error_bound;
  }
  return u;
}

namespace {
void collect_source_executors(NodeExecutor* exec, std::vector<NodeExecutor*>& out) {
  if (exec->node().kind == StreamNode::Kind::kSource) {
    out.push_back(exec);
    return;
  }
  collect_source_executors(exec->left(), out);
  collect_source_executors(exec->right(), out);
}
}  // namespace

QueryExecutor::QueryExecutor(const query::Query& q) : query_(&q) {
  root_ = std::make_unique<NodeExecutor>(*q.root(), q.state_spec());
  collect_source_executors(root_.get(), sources_);
}

void QueryExecutor::ingest(int source_index, Tuple t, std::size_t entry) {
  sources_.at(static_cast<std::size_t>(source_index))->chain().ingest(std::move(t), entry);
}

void QueryExecutor::ingest_batch(int source_index, std::span<Tuple> ts, std::size_t entry) {
  sources_.at(static_cast<std::size_t>(source_index))->chain().ingest_batch(ts, entry);
}

void QueryExecutor::ingest_packet(const net::Packet& p) {
  ingest_source_tuple(query::materialize_tuple(p));
}

void QueryExecutor::ingest_source_tuple(const Tuple& source_tuple) {
  for (auto* src : sources_) src->chain().ingest_view(source_tuple, 0);
}

std::vector<Tuple> QueryExecutor::end_window() { return root_->end_window(); }

std::uint64_t QueryExecutor::stateful_entries() const noexcept {
  return root_->stateful_entries();
}

state::StateUsage QueryExecutor::state_usage() const noexcept { return root_->state_usage(); }

bool QueryExecutor::set_filter_entries(const std::string& table_name,
                                       std::vector<Tuple> entries) {
  bool found = false;
  for (auto* src : sources_) {
    if (src->chain().set_filter_entries(table_name, entries)) found = true;
  }
  return found;
}

}  // namespace sonata::stream
