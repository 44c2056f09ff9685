#include "stream/executor.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/metrics.h"
#include "util/hash.h"

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

using pisa::kernel::kBlock;
using query::OpKind;
using query::Operator;
using query::Schema;
using query::StreamNode;
using query::Tuple;
using query::Value;

// --- RowBlock ----------------------------------------------------------------

void RowBlock::reset(const Schema& schema) {
  const std::size_t width = schema.size();
  string_.resize(width);
  words_.resize(width);
  values_.resize(width);
  for (std::size_t c = 0; c < width; ++c) {
    string_[c] = schema.at(c).kind == query::ValueKind::kString ? 1 : 0;
    words_[c].clear();
    values_[c].clear();
  }
  rows_ = 0;
}

void RowBlock::append(Tuple&& t) {
  for (std::size_t c = 0; c < width(); ++c) {
    if (c < t.size()) {
      push(c, std::move(t.values[c]));
    } else {
      push(c, std::uint64_t{0});
    }
  }
  ++rows_;
}

void RowBlock::append_words(const std::uint64_t* keys, const std::uint64_t* aggs, std::size_t n,
                            std::size_t arity) {
  if (width() == 0) return;
  const std::size_t key_cols = width() - 1;
  for (std::size_t c = 0; c < key_cols; ++c) {
    if (string_[c] != 0 || c >= arity) {
      for (std::size_t e = 0; e < n; ++e) push(c, c < arity ? keys[e * arity + c] : 0);
      continue;
    }
    std::vector<std::uint64_t>& col = words_[c];
    const std::size_t at = col.size();
    col.resize(at + n);
    for (std::size_t e = 0; e < n; ++e) col[at + e] = keys[e * arity + c];
  }
  for (std::size_t e = 0; e < n; ++e) push(key_cols, aggs[e]);
  rows_ += n;
}

void RowBlock::append_columns(const pisa::kernel::Column* cols, const std::uint32_t* sel,
                              std::size_t m) {
  for (std::size_t c = 0; c < width(); ++c) {
    const pisa::kernel::Column& col = cols[c];
    if (col.strings != nullptr) {
      for (std::size_t k = 0; k < m; ++k) push(c, Value(*col.strings[sel[k]]));
      continue;
    }
    if (string_[c] != 0) {
      for (std::size_t k = 0; k < m; ++k) push(c, col.words[sel[k]]);
      continue;
    }
    std::vector<std::uint64_t>& out = words_[c];
    const std::size_t at = out.size();
    out.resize(at + m);
    for (std::size_t k = 0; k < m; ++k) out[at + k] = col.words[sel[k]];
  }
  rows_ += m;
}

void RowBlock::append_column(std::size_t c, const RowBlock& from, std::size_t fc,
                             const std::uint32_t* rows, std::size_t m) {
  const std::uint64_t* w = from.words(fc);
  if (const Value* v = from.values(fc)) {
    for (std::size_t k = 0; k < m; ++k) push(c, Value(v[rows[k]]));
    return;
  }
  if (string_[c] != 0) {
    for (std::size_t k = 0; k < m; ++k) push(c, w[rows[k]]);
    return;
  }
  std::vector<std::uint64_t>& out = words_[c];
  const std::size_t at = out.size();
  out.resize(at + m);
  for (std::size_t k = 0; k < m; ++k) out[at + k] = w[rows[k]];
}

std::vector<Tuple> RowBlock::take_tuples() {
  std::vector<Tuple> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    query::ValueVec& t = out[r].values;
    t.reserve(width());
    for (std::size_t c = 0; c < width(); ++c) {
      if (string_[c] != 0) {
        t.push_back(std::move(values_[c][r]));
      } else {
        t.emplace_back(words_[c][r]);
      }
    }
  }
  return out;
}

void RowBlock::distinct_column(std::size_t c, std::vector<Tuple>& out) {
  const std::uint64_t* words = words_[c].data();
  const Value* values = this->values(c);
  seen_.reset(1);
  seen_rows_.clear();
  for (std::uint32_t r = 0; r < rows_; ++r) {
    // A string's word is already its hash, and a number's hash is a
    // bijection of it, so only strings need their Values compared.
    const std::uint64_t hash = values != nullptr ? words[r] : util::hash_u64(words[r], 0);
    const auto same = [&](std::size_t e) {
      return values == nullptr || values[seen_rows_[e]] == values[r];
    };
    if (!seen_.insert(&words[r], hash, same).second) continue;
    seen_rows_.push_back(r);
    Tuple key;
    if (values != nullptr) {
      key.values.push_back(values[r]);
    } else {
      key.values.emplace_back(words[r]);
    }
    out.push_back(std::move(key));
  }
}

// --- ChainExecutor -----------------------------------------------------------

ChainExecutor::ChainExecutor(const StreamNode& node, const query::StateSpec& spec)
    : node_(node) {
  assert(node_.schemas.size() == node_.ops.size() + 1);
  ops_.reserve(node_.ops.size());
  for (std::size_t i = 0; i < node_.ops.size(); ++i) {
    const Operator& op = node_.ops[i];
    const Schema& in = node_.schemas[i];
    // The column path reads column j of `in` from slot j.
    std::vector<std::uint32_t> env(in.size());
    std::iota(env.begin(), env.end(), 0U);
    BoundOp bop;
    bop.kind = op.kind;
    switch (op.kind) {
      case OpKind::kFilter: {
        bop.pred = op.predicate->bind(in);
        std::vector<const query::Expr*> conjuncts;
        pisa::kernel::split_conjuncts(op.predicate, conjuncts);
        for (const query::Expr* c : conjuncts) bop.columns.emplace_back(*c, in, env);
        break;
      }
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) bop.match.push_back(m->bind(in));
        bop.table_name = op.table_name;
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) {
          bop.projections.push_back(p.expr->bind(in));
          bop.columns.emplace_back(*p.expr, in, env);
        }
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

state::ReduceEngine& ChainExecutor::poll_reduce(std::size_t entry) {
  BoundOp& op = ops_.at(entry);
  assert(op.kind == OpKind::kReduce);
  return op.agg;
}

RowBlock& ChainExecutor::close(const RowBlock* joined) {
  out_.reset(node_.schemas.back());
  if (joined != nullptr) {
    ingested_ += joined->size();
    run_columns(*joined, 0);
  }
  // Publish the window's ingest tally to the registry in one add — the
  // per-tuple path keeps only the plain ingested_ increment (metrics.h:
  // single-writer loops publish once per window).
  if (obs::enabled()) {
    stream_tuples_counter().add(ingested_ - ingested_pub_);
    publish_table_obs();
  }
  ingested_pub_ = ingested_;
  // Drain reduces in ascending order: outputs of an earlier reduce flow
  // into later operators (possibly another reduce, drained next). A drain
  // walks the engine's dense entries in insertion order — deterministic
  // regardless of probe order or capacity — and its rows only ever enter
  // LATER operators, never its own table.
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    BoundOp& op = ops_[i];
    if (op.kind != OpKind::kReduce) continue;
    drained_.reset(node_.schemas[i + 1]);
    op.agg.drain_and_clear(
        [&](const std::uint64_t* keys, const std::uint64_t* aggs, std::size_t n,
            std::size_t arity) { drained_.append_words(keys, aggs, n, arity); },
        [&](Tuple&& key, std::uint64_t value) {
          key.values.emplace_back(value);
          drained_.append(std::move(key));
        });
    run_columns(drained_, i + 1);
  }
  for (auto& op : ops_) {
    op.seen.clear();
    op.agg.clear();
  }
  flush_pending();
  return out_;
}

void ChainExecutor::flush_pending() {
  for (Tuple& t : pending_) out_.append(std::move(t));
  pending_.clear();
}

void ChainExecutor::run_columns(const RowBlock& in, std::size_t entry) {
  // Filters and maps run on columns up to `stop`, the first operator that
  // needs the per-tuple path (or the chain end).
  std::size_t stop = entry;
  while (stop < ops_.size() &&
         (ops_[stop].kind == OpKind::kFilter || ops_[stop].kind == OpKind::kMap)) {
    ++stop;
  }
  const bool to_end = stop == ops_.size();
  // Rows reaching the end follow every row in-window ingest left there:
  // nothing after this run adds to pending_ (no stateful operator is left).
  if (to_end) flush_pending();
  const std::size_t width = in.width();
  if (strings_.size() < width) strings_.resize(width);
  for (std::size_t base = 0; base < in.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, in.size() - base);
    scratch_.release();
    cols_.resize(width);
    for (std::size_t c = 0; c < width; ++c) {
      cols_[c] = {in.words(c) + base, nullptr};
      if (const Value* v = in.values(c)) {
        std::vector<const Value*>& ptrs = strings_[c];
        ptrs.resize(kBlock);
        for (std::size_t k = 0; k < n; ++k) ptrs[k] = v + base + k;
        cols_[c].strings = ptrs.data();
      }
    }
    std::uint32_t* sel = scratch_.sel();
    std::iota(sel, sel + n, 0U);
    std::size_t m = n;
    for (std::size_t i = entry; i < stop && m != 0; ++i) {
      const BoundOp& op = ops_[i];
      if (op.kind == OpKind::kFilter) {
        for (const auto& conjunct : op.columns) {
          m = conjunct.narrow(cols_.data(), sel, m, scratch_);
          if (m == 0) break;
        }
        continue;
      }
      // A map: its projections become the columns, compacted to the
      // selection.
      next_cols_.resize(op.columns.size());
      for (std::size_t j = 0; j < op.columns.size(); ++j) {
        const pisa::kernel::Temp t = scratch_.temp(op.columns[j].string_result());
        op.columns[j].eval(cols_.data(), sel, m, scratch_, t);
        next_cols_[j] = {t.words, t.strings};
      }
      cols_.swap(next_cols_);
      std::iota(sel, sel + m, 0U);
    }
    if (m == 0) continue;
    if (to_end) {
      out_.append_columns(cols_.data(), sel, m);
      continue;
    }
    for (std::size_t k = 0; k < m; ++k) {
      Tuple t;
      t.values.reserve(cols_.size());
      for (const pisa::kernel::Column& col : cols_) {
        if (col.strings != nullptr) {
          t.values.push_back(*col.strings[sel[k]]);
        } else {
          t.values.emplace_back(col.words[sel[k]]);
        }
      }
      process(std::move(t), stop);
    }
  }
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

RowBlock& NodeExecutor::close() {
  if (node_.kind != StreamNode::Kind::kJoin) return chain_.close();
  const RowBlock& lhs = left_->close();
  const RowBlock& rhs = right_->close();
  join(lhs, rhs);
  return chain_.close(&joined_);
}

std::uint64_t NodeExecutor::key_of(const RowBlock& b, std::span<const std::size_t> keys,
                                   std::size_t r) {
  // Each key word is its Value's hash (a string column's word already is;
  // a number's is a bijection of it), so equal words are equal numbers and
  // only string columns need their Values compared.
  std::uint64_t h = query::kTupleHashSeed;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const std::uint64_t w = b.words(keys[j])[r];
    key_[j] = b.is_string(keys[j]) ? w : util::hash_u64(w, 0);
    h = util::hash_combine(h, key_[j]);
  }
  return h;
}

namespace {
// Column ac of row ar of `a` equals column bc of row br of `b`, given their
// words' hashes agree.
bool same_value(const RowBlock& a, std::size_t ac, std::size_t ar, const RowBlock& b,
                std::size_t bc, std::size_t br) {
  const Value* av = a.values(ac);
  const Value* bv = b.values(bc);
  if (av == nullptr && bv == nullptr) return true;
  if (av != nullptr && bv != nullptr) return av[ar] == bv[br];
  return av != nullptr ? av[ar] == Value(b.words(bc)[br]) : Value(a.words(ac)[ar]) == bv[br];
}
}  // namespace

void NodeExecutor::join(const RowBlock& lhs, const RowBlock& rhs) {
  constexpr std::uint32_t kEnd = ~std::uint32_t{0};
  const std::size_t nk = lkeys_.size();
  bool string_keys = false;
  for (std::size_t j = 0; j < nk; ++j) {
    string_keys = string_keys || lhs.is_string(lkeys_[j]) || rhs.is_string(rkeys_[j]);
  }
  // Rows ar of `a` (key columns akeys) and br of rhs have equal keys.
  const auto same_keys = [&](const RowBlock& a, const std::vector<std::size_t>& akeys,
                             std::size_t ar, std::size_t br) {
    for (std::size_t j = 0; string_keys && j < nk; ++j) {
      if (!same_value(a, akeys[j], ar, rhs, rkeys_[j], br)) return false;
    }
    return true;
  };
  // Build on the right: a repeated key appends its row to the key's chain.
  key_.resize(nk);
  index_.reset(nk);
  heads_.clear();
  tails_.clear();
  next_.assign(rhs.size(), kEnd);
  for (std::uint32_t r = 0; r < rhs.size(); ++r) {
    const std::uint64_t h = key_of(rhs, rkeys_, r);
    const auto [e, inserted] = index_.insert(
        key_.data(), h, [&](std::size_t at) { return same_keys(rhs, rkeys_, r, heads_[at]); });
    if (inserted) {
      heads_.push_back(r);
      tails_.push_back(r);
    } else {
      next_[tails_[e]] = r;
      tails_[e] = r;
    }
  }
  // Probe with the left, in its row order.
  lrows_.clear();
  rrows_.clear();
  for (std::uint32_t l = 0; l < lhs.size(); ++l) {
    const std::uint64_t h = key_of(lhs, lkeys_, l);
    const std::size_t e = index_.find(
        key_.data(), h, [&](std::size_t at) { return same_keys(lhs, lkeys_, l, heads_[at]); });
    if (e == util::FlatWordSet::npos) continue;
    for (std::uint32_t r = heads_[e]; r != kEnd; r = next_[r]) {
      lrows_.push_back(l);
      rrows_.push_back(r);
    }
  }
  // Output layout must match validate_node(): keys, left non-keys, right
  // non-keys.
  joined_.reset(node_.schemas.front());
  const std::size_t m = lrows_.size();
  std::size_t c = 0;
  for (const std::size_t k : lkeys_) joined_.append_column(c++, lhs, k, lrows_.data(), m);
  for (const std::size_t i : lrest_) joined_.append_column(c++, lhs, i, lrows_.data(), m);
  for (const std::size_t i : rrest_) joined_.append_column(c++, rhs, i, rrows_.data(), m);
  joined_.end_append(m);
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
