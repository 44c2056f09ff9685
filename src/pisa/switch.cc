#include "pisa/switch.h"

#include <algorithm>
#include <cassert>

#include "util/log.h"

namespace sonata::pisa {

using query::OpKind;
using query::Operator;
using query::Schema;
using query::Tuple;

struct CompiledSwitchQuery::Single {
  kernel::PhvBuffer phv;
  kernel::Scratch scratch;
  EmitStaging staged;
};

CompiledSwitchQuery::CompiledSwitchQuery(const query::StreamNode& node, Options opts)
    : node_(node), opts_(std::move(opts)) {
  assert(node_.kind == query::StreamNode::Kind::kSource);
  assert(node_.schemas.size() == node_.ops.size() + 1);
  assert(opts_.partition <= node_.ops.size());

  const Schema& source = node_.schemas[0];
  source_cols_ = source.size();
  for (std::size_t c = 0; c < source_cols_; ++c) {
    slot_string_.push_back(source.at(c).kind == query::ValueKind::kString);
  }
  // The row entering ops[i] lives in column slots env; it is the source
  // tuple itself until the first map.
  std::vector<std::uint32_t> env(source_cols_);
  for (std::size_t c = 0; c < source_cols_; ++c) env[c] = static_cast<std::uint32_t>(c);
  bool identity = true;

  const auto register_chain = [&](std::size_t i, std::vector<query::ValueKind> key_kinds,
                                  int value_bits, bool sketch_ok) {
    const auto it = opts_.sizing.find(i);
    const RegisterSizing rs = it != opts_.sizing.end() ? it->second : RegisterSizing{};
    RegisterChainConfig rc;
    rc.entries_per_register = rs.entries;
    rc.depth = rs.depth;
    rc.key_bits = stateful_key_bits(node_, i);
    rc.value_bits = value_bits;
    rc.hash_seed = opts_.hash_seed;
    rc.hashpipe = sketch_ok && rs.sketch;
    rc.key_kinds = std::move(key_kinds);
    return std::make_unique<RegisterChain>(rc);
  };

  for (std::size_t i = 0; i < opts_.partition; ++i) {
    const Operator& op = node_.ops[i];
    const Schema& in = node_.schemas[i];
    CompiledOp cop;
    cop.kind = op.kind;
    cop.op_index = i;
    cop.env = env;
    cop.identity = identity;
    switch (op.kind) {
      case OpKind::kFilter: {
        if (foldable_threshold(node_, i)) continue;  // folded into the reduce below
        std::vector<const query::Expr*> conjuncts;
        kernel::split_conjuncts(op.predicate, conjuncts);
        for (const query::Expr* c : conjuncts) cop.conjuncts.emplace_back(*c, in, env);
        break;
      }
      case OpKind::kFilterIn:
        for (const auto& m : op.match_exprs) {
          cop.match.emplace_back(*m, in, env);
          cop.key_string.push_back(cop.match.back().string_result());
        }
        cop.table_name = op.table_name;
        cop.entries = util::FlatWordSet(cop.match.size());
        cop.match_temps.resize(cop.match.size());
        break;
      case OpKind::kMap:
        for (const auto& p : op.projections) {
          kernel::ColumnExpr e(*p.expr, in, env);
          if (const auto alias = e.alias()) {
            cop.out_env.push_back(*alias);
          } else if (const query::Value* v = e.constant()) {
            cop.out_env.push_back(add_constant(*v));
          } else {
            const std::uint32_t slot = add_derived(e.string_result());
            cop.out_env.push_back(slot);
            cop.computed.emplace_back(slot, std::move(e));
          }
        }
        env = cop.out_env;
        identity = false;
        break;
      case OpKind::kDistinct: {
        cop.key_slots = env;
        std::vector<query::ValueKind> kinds;
        for (const auto& col : in.columns()) kinds.push_back(col.kind);
        cop.chain = register_chain(i, std::move(kinds), /*value_bits=*/1, /*sketch_ok=*/false);
        break;
      }
      case OpKind::kReduce: {
        std::vector<query::ValueKind> kinds;
        for (const auto& k : op.keys) {
          const auto idx = in.index_of(k);
          assert(idx);
          cop.key_idx.push_back(*idx);
          cop.key_slots.push_back(env[*idx]);
          kinds.push_back(in.at(*idx).kind);
        }
        const auto vidx = in.index_of(op.value_col);
        assert(vidx);
        cop.value_idx = *vidx;
        cop.value_slot = env[*vidx];
        cop.fn = op.fn;
        cop.chain = register_chain(i, std::move(kinds), /*value_bits=*/32, /*sketch_ok=*/true);
        // Fold the following threshold filter, if present and included in
        // the partition.
        if (i + 1 < opts_.partition) cop.folded = foldable_threshold(node_, i + 1);
        break;
      }
    }
    if (cop.kind == OpKind::kDistinct || cop.kind == OpKind::kReduce) {
      for (const std::uint32_t slot : cop.key_slots) cop.key_string.push_back(slot_string_[slot]);
    }
    for (const bool str : cop.key_string) cop.string_keys += str ? 1 : 0;
    ops_.push_back(std::move(cop));
  }
  tail_env_ = env;
  tail_identity_ = identity;

  if (!ops_.empty() && ops_.back().kind == OpKind::kReduce) {
    tail_reduce_ = &ops_.back();
    // Polled aggregates re-enter the chain AT the reduce: the stream
    // processor folds them into its own (overflow-corrected) state and
    // applies the trailing threshold to the merged totals.
    poll_entry_ = tail_reduce_->op_index;
  } else {
    poll_entry_ = opts_.partition;
  }

  cols_.assign(slot_string_.size(), kernel::Column{});
  for (std::size_t j = 0; j < derived_.size(); ++j) {
    DerivedColumn& d = derived_[j];
    cols_[source_cols_ + j] = {d.words.data(), d.string ? d.strings.data() : nullptr};
  }
  for (CompiledOp& cop : ops_) {
    for (const std::uint32_t slot : cop.key_slots) cop.key_cols.push_back(&cols_[slot]);
  }
  // The PHV columns this pipeline reads: expression inputs, keys and
  // aggregated values, and the columns of every row it may emit.
  std::vector<std::uint32_t> used;
  for (const CompiledOp& cop : ops_) {
    for (const auto& c : cop.conjuncts) c.collect_slots(used);
    for (const auto& m : cop.match) m.collect_slots(used);
    for (const auto& [slot, e] : cop.computed) e.collect_slots(used);
    used.insert(used.end(), cop.key_slots.begin(), cop.key_slots.end());
    if (cop.kind == OpKind::kReduce) used.push_back(cop.value_slot);
    if (!cop.identity) used.insert(used.end(), cop.env.begin(), cop.env.end());
  }
  if (!tail_identity_) used.insert(used.end(), tail_env_.begin(), tail_env_.end());
  for (const std::uint32_t slot : used) {
    if (slot < source_cols_) phv_cols_.push_back(slot);
  }
  std::sort(phv_cols_.begin(), phv_cols_.end());
  phv_cols_.erase(std::unique(phv_cols_.begin(), phv_cols_.end()), phv_cols_.end());
}

CompiledSwitchQuery::~CompiledSwitchQuery() = default;

std::uint32_t CompiledSwitchQuery::add_derived(bool string) {
  const auto slot = static_cast<std::uint32_t>(slot_string_.size());
  slot_string_.push_back(string);
  DerivedColumn& d = derived_.emplace_back();
  d.string = string;
  d.words.assign(kernel::kBlock, 0);
  if (string) {
    d.strings.assign(kernel::kBlock, nullptr);
    d.owned.resize(kernel::kBlock);
  }
  return slot;
}

std::uint32_t CompiledSwitchQuery::add_constant(const query::Value& v) {
  const std::uint32_t slot = add_derived(v.is_string());
  DerivedColumn& d = derived_.back();
  if (d.string) {
    d.owned.assign(1, v);
    d.strings.assign(kernel::kBlock, d.owned.data());
    d.words.assign(kernel::kBlock, v.hash());
  } else {
    d.words.assign(kernel::kBlock, v.as_uint());
  }
  return slot;
}

Tuple CompiledSwitchQuery::row_tuple(std::span<const std::uint32_t> env, bool identity,
                                     const kernel::Phv& phv, std::uint32_t row) const {
  if (identity) return phv.sources[row];
  Tuple t;
  t.values.reserve(env.size());
  for (const std::uint32_t slot : env) {
    const kernel::Column& c = cols_[slot];
    if (slot_string_[slot]) {
      t.values.push_back(*c.strings[row]);
    } else {
      t.values.emplace_back(c.words[row]);
    }
  }
  return t;
}

void CompiledSwitchQuery::emit(EmitStaging& out, EmitRecord::Kind kind, std::size_t op_index,
                               Tuple tuple, std::uint32_t row) {
  ++emitted_;
  out.records.push_back(
      EmitRecord{kind, opts_.qid, opts_.source_index, opts_.level, op_index, std::move(tuple)});
  out.rows.push_back(row);
}

void CompiledSwitchQuery::run(const kernel::Phv& phv, std::span<const std::uint32_t> live,
                              kernel::Scratch& s, EmitStaging& out) {
  packets_seen_ += live.size();
  if (live.empty()) return;
  for (const std::uint32_t c : phv_cols_) cols_[c] = phv.cols[c];
  std::uint32_t* sel = s.sel();
  std::copy(live.begin(), live.end(), sel);
  std::size_t m = live.size();
  for (CompiledOp& op : ops_) {
    s.release();
    switch (op.kind) {
      case OpKind::kFilter:
        for (const auto& c : op.conjuncts) {
          m = c.narrow(cols_.data(), sel, m, s);
          if (m == 0) break;
        }
        break;
      case OpKind::kFilterIn:
        m = run_filter_in(op, sel, m, s);
        break;
      case OpKind::kMap:
        run_map(op, sel, m, s);
        break;
      case OpKind::kDistinct:
        m = run_stateful(op, phv, sel, m, s, out);
        break;
      case OpKind::kReduce:
        run_stateful(op, phv, sel, m, s, out);
        return;  // a reduce ends the switch's part of the chain
    }
    if (m == 0) return;
  }
  // Stateless tail: the surviving rows stream to the SP.
  for (std::size_t k = 0; k < m; ++k) {
    emit(out, EmitRecord::Kind::kStream, opts_.partition,
         row_tuple(tail_env_, tail_identity_, phv, sel[k]), sel[k]);
  }
}

std::size_t CompiledSwitchQuery::run_filter_in(CompiledOp& op, std::uint32_t* sel,
                                               std::size_t m, kernel::Scratch& s) {
  if (op.entries.empty()) return 0;
  const std::size_t width = op.match.size();
  for (std::size_t c = 0; c < width; ++c) {
    op.match_temps[c] = s.temp(op.key_string[c] != 0);
    op.match[c].eval(cols_.data(), sel, m, s, op.match_temps[c]);
  }
  std::uint64_t* key = s.keys(width);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < m; ++k) {
    // The entry set is keyed by Tuple::hash() of the match row.
    std::uint64_t h = query::kTupleHashSeed;
    for (std::size_t c = 0; c < width; ++c) {
      const std::uint64_t w = op.match_temps[c].words[k];
      key[c] = w;
      h = util::hash_combine(h, op.key_string[c] != 0 ? w : util::hash_u64(w, 0));
    }
    const auto same_strings = [&](std::size_t e) {
      for (std::size_t c = 0, j = 0; c < width; ++c) {
        if (op.key_string[c] != 0 &&
            op.entry_strings[e * op.string_keys + j++] != *op.match_temps[c].strings[k]) {
          return false;
        }
      }
      return true;
    };
    const std::uint32_t row = sel[k];
    sel[kept] = row;
    kept += op.entries.find(key, h, same_strings) != util::FlatWordSet::npos ? 1 : 0;
  }
  return kept;
}

void CompiledSwitchQuery::run_map(CompiledOp& op, const std::uint32_t* sel, std::size_t m,
                                  kernel::Scratch& s) {
  for (const auto& [slot, e] : op.computed) {
    DerivedColumn& d = derived_[slot - source_cols_];
    const kernel::Temp t = s.temp(d.string);
    e.eval(cols_.data(), sel, m, s, t);
    for (std::size_t k = 0; k < m; ++k) d.words[sel[k]] = t.words[k];
    if (d.string) {
      for (std::size_t k = 0; k < m; ++k) {
        const std::uint32_t row = sel[k];
        d.owned[row] = *t.strings[k];
        d.strings[row] = &d.owned[row];
      }
    }
  }
}

std::size_t CompiledSwitchQuery::run_stateful(CompiledOp& op, const kernel::Phv& phv,
                                              std::uint32_t* sel, std::size_t m,
                                              kernel::Scratch& s, EmitStaging& out) {
  const bool distinct = op.kind == OpKind::kDistinct;
  const std::size_t width = op.key_cols.size();
  const std::size_t strings = op.string_keys;
  std::uint64_t* keys = s.keys(width);
  const query::Value** key_strings = s.key_strings(strings);
  std::uint64_t* fps = s.fps();
  std::uint64_t* slots = s.slots();
  std::uint64_t* deltas = distinct ? nullptr : s.deltas();
  const std::uint64_t* value = distinct ? nullptr : cols_[op.value_slot].words;
  RegisterChain& chain = *op.chain;
  const bool exact = !chain.sketch();
  // One pass over the survivors packs each key (row-major words, string
  // pointers), folds its Tuple::hash() (Value::hash is hash_u64 for
  // numbers and the stored word for strings) and, for exact registers,
  // computes and prefetches its first slot before any probe runs.
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t row = sel[k];
    std::uint64_t h = query::kTupleHashSeed;
    std::size_t j = 0;
    for (std::size_t c = 0; c < width; ++c) {
      const kernel::Column& col = *op.key_cols[c];
      const std::uint64_t w = col.words[row];
      keys[k * width + c] = w;
      if (op.key_string[c] != 0) {
        key_strings[k * strings + j++] = col.strings[row];
        h = util::hash_combine(h, w);
      } else {
        h = util::hash_combine(h, util::hash_u64(w, 0));
      }
    }
    fps[k] = h;
    if (exact) slots[k] = chain.prepare(h);
    if (deltas != nullptr) deltas[k] = value[row];
  }
  const query::ReduceFn fn = distinct ? query::ReduceFn::kBitOr : op.fn;
  const auto key_tuple = [&](std::size_t k) {
    Tuple t;
    t.values.reserve(width + 1);
    std::size_t j = 0;
    for (std::size_t c = 0; c < width; ++c) {
      if (op.key_string[c]) {
        t.values.push_back(*key_strings[k * strings + j++]);
      } else {
        t.values.emplace_back(keys[k * width + c]);
      }
    }
    return t;
  };

  std::size_t kept = 0;
  const auto handle = [&](const RegisterChain::UpdateResult& r, std::size_t k) {
    const std::uint32_t row = sel[k];
    ++probe_tally_[std::min(r.probes, kProbeTallyMax)];
    if (r.overflow) {
      // The SP re-runs this operator (and everything after) for the row.
      ++overflows_;
      emit(out, EmitRecord::Kind::kOverflow, op.op_index, row_tuple(op.env, op.identity, phv, row),
           row);
      return;
    }
    if (distinct) {
      if (r.newly_inserted) sel[kept++] = row;  // duplicates within the window stop here
      return;
    }
    if (!(op.folded ? r.reported : r.newly_inserted)) return;
    Tuple report = key_tuple(k);
    report.values.emplace_back(r.value);
    ++key_reports_;
    emit(out, EmitRecord::Kind::kKeyReport, poll_entry_, std::move(report), row);
  };
  if (!exact) {
    // HashPipe stages keep Tuple keys (state/hashpipe.h): update them key
    // by key, exactly as the chain's Tuple interface does.
    for (std::size_t k = 0; k < m; ++k) {
      const Tuple key = key_tuple(k);
      RegisterChain::UpdateResult r = chain.update(key, deltas != nullptr ? deltas[k] : 1, fn);
      if (op.folded) {
        const bool passes = op.folded->strict ? r.value > op.folded->threshold
                                              : r.value >= op.folded->threshold;
        r.reported = passes && chain.mark_reported(key);
      }
      handle(r, k);
    }
    return kept;
  }
  const FoldedThreshold* report = op.folded ? &*op.folded : nullptr;
  const auto probe = [&]<std::size_t kWidth>() {
    for (std::size_t k = 0; k < m; ++k) {
      handle(chain.update_prepared<kWidth>(keys + k * width,
                                           strings == 0 ? nullptr : key_strings + k * strings,
                                           fps[k], slots[k], deltas != nullptr ? deltas[k] : 1,
                                           fn, report),
             k);
    }
  };
  switch (chain.fixed_width()) {
    case 1: probe.template operator()<1>(); break;
    case 2: probe.template operator()<2>(); break;
    case 3: probe.template operator()<3>(); break;
    case 4: probe.template operator()<4>(); break;
    default: probe.template operator()<0>(); break;
  }
  return kept;
}

bool CompiledSwitchQuery::process_into(const Tuple& source, EmitSink& sink) {
  if (!single_) {
    single_ = std::make_unique<Single>();
    single_->phv.configure(phv_cols_, node_.schemas[0]);
  }
  const kernel::Phv& phv = single_->phv.gather({&source, 1});
  const std::uint32_t row = 0;
  single_->staged.clear();
  run(phv, {&row, 1}, single_->scratch, single_->staged);
  if (single_->staged.records.empty()) return false;
  sink.append(std::move(single_->staged.records.front()));
  return true;
}

std::optional<EmitRecord> CompiledSwitchQuery::process(const Tuple& source) {
  EmitSink sink;
  if (!process_into(source, sink)) return std::nullopt;
  return std::move(sink.records().front());
}

std::vector<Tuple> CompiledSwitchQuery::poll_aggregates() const {
  std::vector<Tuple> out;
  if (!tail_reduce_) return out;
  PolledBlock block;
  poll_block(block);
  out.reserve(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    out.push_back(shape_polled(block.key_tuple(i), block.value(i)));
  }
  return out;
}

void CompiledSwitchQuery::poll_block(PolledBlock& out) const {
  if (!tail_reduce_) {
    out.configure({});
    return;
  }
  tail_reduce_->chain->poll_into(out);
}

std::span<const query::ValueKind> CompiledSwitchQuery::tail_key_kinds() const {
  assert(tail_reduce_);
  return tail_reduce_->chain->config().key_kinds;
}

Tuple CompiledSwitchQuery::shape_polled(const Tuple& key, std::uint64_t value) const {
  assert(tail_reduce_);
  // Shape the aggregate like a reduce-input tuple: keys at their key
  // positions, the aggregate in the value column, anything else zeroed.
  const Schema& in = node_.schemas[tail_reduce_->op_index];
  Tuple t;
  t.values.assign(in.size(), query::Value{std::uint64_t{0}});
  for (std::size_t k = 0; k < tail_reduce_->key_idx.size(); ++k) {
    t.values[tail_reduce_->key_idx[k]] = key.at(k);
  }
  t.values[tail_reduce_->value_idx] = query::Value{value};
  return t;
}

void CompiledSwitchQuery::reset_registers() {
  for (auto& cop : ops_) {
    if (cop.chain) cop.chain->reset();
  }
}

void CompiledSwitchQuery::reset_runtime_state() {
  reset_registers();
  // Stale dynamic-refinement winners must not filter the next plan's first
  // window — a freshly compiled pipeline starts with empty entry sets.
  for (auto& cop : ops_) {
    if (cop.kind == OpKind::kFilterIn) {
      cop.entries.clear();
      cop.entry_strings.clear();
    }
  }
}

std::vector<CompiledSwitchQuery::StatefulOpStats> CompiledSwitchQuery::stateful_op_stats() const {
  std::vector<StatefulOpStats> out;
  for (const auto& cop : ops_) {
    if (!cop.chain) continue;
    const RegisterChainConfig& rc = cop.chain->config();
    out.push_back({.op_index = cop.op_index,
                   .kind = cop.kind,
                   .keys_stored = cop.chain->keys_stored(),
                   .slots = static_cast<std::uint64_t>(rc.entries_per_register) *
                            static_cast<std::uint64_t>(rc.depth),
                   .overflows = cop.chain->overflow_count(),
                   .sketch = cop.chain->sketch(),
                   .evicted_weight = cop.chain->evicted_weight(),
                   .evicted_keys = cop.chain->evicted_keys()});
  }
  return out;
}

bool CompiledSwitchQuery::set_filter_entries(const std::string& table_name,
                                             std::vector<Tuple> entries) {
  for (auto& cop : ops_) {
    if (cop.kind != OpKind::kFilterIn || cop.table_name != table_name) continue;
    cop.entries.clear();
    cop.entry_strings.clear();
    const std::size_t width = cop.match.size();
    std::vector<std::uint64_t> words(width);
    for (const Tuple& e : entries) {
      // An entry whose shape differs from the match row can never match.
      bool matchable = e.size() == width;
      for (std::size_t c = 0; matchable && c < width; ++c) {
        const query::Value& v = e.values[c];
        matchable = v.is_string() == cop.key_string[c];
        words[c] = v.is_string() ? v.hash() : v.as_uint();
      }
      if (!matchable) continue;
      const auto same_strings = [&](std::size_t at) {
        for (std::size_t c = 0, j = 0; c < width; ++c) {
          if (cop.key_string[c] && cop.entry_strings[at * cop.string_keys + j++] != e.values[c]) {
            return false;
          }
        }
        return true;
      };
      if (cop.entries.insert(words.data(), e.hash(), same_strings).second) {
        for (std::size_t c = 0; c < width; ++c) {
          if (cop.key_string[c]) cop.entry_strings.push_back(e.values[c]);
        }
      }
    }
    return true;
  }
  return false;
}

std::string Switch::install(std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines,
                            const std::vector<ProgramResources>& resources) {
  Layout layout = assign_stages(cfg_, resources);
  if (!layout.feasible) return layout.error;
  pipelines_ = std::move(pipelines);
  layout_ = std::move(layout);
  // The PHV gathers the union of the columns the pipelines read, laid out
  // by the widest source schema among them (a field registered between
  // compiles only appends columns).
  std::vector<std::uint32_t> cols;
  const Schema* source = nullptr;
  for (const auto& p : pipelines_) {
    cols.insert(cols.end(), p->phv_columns().begin(), p->phv_columns().end());
    const Schema& s = p->node().schemas.front();
    if (source == nullptr || s.size() > source->size()) source = &s;
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  if (source != nullptr) phv_.configure(cols, *source);
  init_obs_handles();
  SONATA_DEBUG("pisa", "installed %zu pipelines, metadata %d bits", pipelines_.size(),
               layout_.metadata_bits_used);
  return {};
}

std::vector<std::unique_ptr<CompiledSwitchQuery>> Switch::release_pipelines() {
  publish_obs();  // flush pending deltas before the baselines go away
  std::vector<std::unique_ptr<CompiledSwitchQuery>> out = std::move(pipelines_);
  pipelines_.clear();
  layout_ = Layout{};
  return out;
}

void Switch::init_obs_handles() {
  auto& reg = obs::Registry::global();
  const std::pair<std::string_view, std::string> sw{"sw", obs_label_};
  auto name1 = [&](const char* base) {
    const std::pair<std::string_view, std::string> labels[] = {sw};
    return obs::labeled(base, labels);
  };
  obs_.packets = &reg.counter(name1("sonata_pisa_packets_total"));
  obs_.dropped = &reg.counter(name1("sonata_pisa_dropped_total"));
  auto kind_name = [&](const char* kind) {
    const std::pair<std::string_view, std::string> labels[] = {sw, {"kind", kind}};
    return obs::labeled("sonata_pisa_emit_records_total", labels);
  };
  obs_.emit_stream = &reg.counter(kind_name("stream"));
  obs_.emit_key_report = &reg.counter(kind_name("key_report"));
  obs_.emit_overflow = &reg.counter(kind_name("overflow"));
  static constexpr std::uint64_t kProbeBounds[] = {1, 2, 3, 4, 6, 8};
  obs_.probe_depth = &reg.histogram(name1("sonata_pisa_probe_depth"), kProbeBounds);

  obs_.occupancy.clear();
  obs_.occupancy.reserve(pipelines_.size());
  obs_.evicted.clear();
  obs_.evicted.reserve(pipelines_.size());
  obs_.probe_pub.assign(pipelines_.size() * (CompiledSwitchQuery::kProbeTallyMax + 1), 0);
  // Baselines snapshot the *current* cumulative counters, not zero: a
  // pipeline reused across a plan swap (and a Switch reinstalled in place)
  // keeps counting from where it was, and the registry must only ever see
  // the delta since this install.
  obs_.packets_pub = stats_.packets_processed;
  obs_.dropped_pub = stats_.dropped_packets;
  obs_.stream_pub = obs_.key_report_pub = obs_.overflow_pub = 0;
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    const auto& p = pipelines_[i];
    obs_.stream_pub += p->stream_records();
    obs_.key_report_pub += p->key_report_records();
    obs_.overflow_pub += p->overflow_records();
    const auto tally = p->probe_tally();
    std::uint64_t* pub = &obs_.probe_pub[i * tally.size()];
    for (std::size_t d = 0; d < tally.size(); ++d) pub[d] = tally[d];
  }
  for (const auto& p : pipelines_) {
    const auto& o = p->options();
    std::vector<obs::Gauge*> per_op;
    std::vector<obs::Gauge*> per_op_evicted;
    for (const auto& s : p->stateful_op_stats()) {
      const std::pair<std::string_view, std::string> labels[] = {
          sw,
          {"qid", std::to_string(o.qid)},
          {"src", std::to_string(o.source_index)},
          {"level", std::to_string(o.level)},
          {"op", std::to_string(s.op_index)}};
      per_op.push_back(&reg.gauge(obs::labeled("sonata_pisa_register_occupancy", labels)));
      reg.gauge(obs::labeled("sonata_pisa_register_slots", labels))
          .set(static_cast<std::int64_t>(s.slots));
      per_op_evicted.push_back(
          s.sketch ? &reg.gauge(obs::labeled("sonata_pisa_hashpipe_evicted_weight", labels))
                   : nullptr);
    }
    obs_.occupancy.push_back(std::move(per_op));
    obs_.evicted.push_back(std::move(per_op_evicted));
  }
}

void Switch::publish_obs() {
  if (!obs::enabled() || pipelines_.empty() || obs_.packets == nullptr) return;
  obs_.packets->add(stats_.packets_processed - obs_.packets_pub);
  obs_.packets_pub = stats_.packets_processed;
  obs_.dropped->add(stats_.dropped_packets - obs_.dropped_pub);
  obs_.dropped_pub = stats_.dropped_packets;

  std::uint64_t streams = 0, key_reports = 0, overflows = 0;
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    const auto& p = *pipelines_[i];
    streams += p.stream_records();
    key_reports += p.key_report_records();
    overflows += p.overflow_records();
    // Register occupancy is a point-in-time gauge: published at window
    // close, before reset_all_registers clears the chains.
    const auto stats = p.stateful_op_stats();
    for (std::size_t s = 0; s < stats.size() && s < obs_.occupancy[i].size(); ++s) {
      obs_.occupancy[i][s]->set(static_cast<std::int64_t>(stats[s].keys_stored));
      if (obs::Gauge* g = obs_.evicted[i][s]) {
        g->set(static_cast<std::int64_t>(stats[s].evicted_weight));
      }
    }
    const auto tally = p.probe_tally();
    std::uint64_t* pub = &obs_.probe_pub[i * tally.size()];
    for (std::size_t d = 1; d < tally.size(); ++d) {
      const std::uint64_t delta = tally[d] - pub[d];
      if (delta != 0) obs_.probe_depth->observe_n(d, delta);
      pub[d] = tally[d];
    }
  }
  obs_.emit_stream->add(streams - obs_.stream_pub);
  obs_.stream_pub = streams;
  obs_.emit_key_report->add(key_reports - obs_.key_report_pub);
  obs_.key_report_pub = key_reports;
  obs_.emit_overflow->add(overflows - obs_.overflow_pub);
  obs_.overflow_pub = overflows;
}

void Switch::process_batch(std::span<const Tuple> sources, EmitSink& sink) {
  for (std::size_t off = 0; off < sources.size(); off += kernel::kBlock) {
    process_block(sources.subspan(off, std::min(kernel::kBlock, sources.size() - off)), sink);
  }
}

void Switch::process_block(std::span<const Tuple> block, EmitSink& sink) {
  stats_.packets_processed += block.size();
  live_.clear();
  for (std::uint32_t i = 0; i < block.size(); ++i) {
    const Tuple& source = block[i];
    const bool blocked = std::any_of(blocks_.begin(), blocks_.end(), [&](const auto& b) {
      return b.first < source.size() && b.second.contains(source.at(b.first));
    });
    if (blocked) {
      ++stats_.dropped_packets;  // guard table drops the packet at line rate
      continue;
    }
    live_.push_back(i);
  }
  if (live_.empty() || pipelines_.empty()) return;
  const kernel::Phv& phv = phv_.gather(block);
  staging_.clear();
  for (auto& p : pipelines_) p->run(phv, live_, *scratch_, staging_);
  merge_staged(block.size(), sink);
}

void Switch::merge_staged(std::size_t rows, EmitSink& sink) {
  std::vector<EmitRecord>& records = staging_.records;
  const std::vector<std::uint32_t>& row = staging_.rows;
  const std::size_t n = records.size();
  if (n == 0) return;
  stats_.records_emitted += n;
  for (const EmitRecord& rec : records) {
    if (rec.kind == EmitRecord::Kind::kOverflow) ++stats_.overflow_records;
  }
  // Pipelines staged their records pipeline by pipeline, each in row
  // order; a stable counting sort by row restores packet-then-pipeline
  // order. One emitting pipeline (the common case) is already sorted.
  const std::uint32_t* order = nullptr;
  if (!std::is_sorted(row.begin(), row.end())) {
    offsets_.assign(rows + 1, 0);
    for (const std::uint32_t r : row) ++offsets_[r + 1];
    for (std::size_t i = 1; i <= rows; ++i) offsets_[i] += offsets_[i - 1];
    order_.resize(n);
    for (std::uint32_t j = 0; j < n; ++j) order_[offsets_[row[j]]++] = j;
    order = order_.data();
  }
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t j = order != nullptr ? order[p] : p;
    const std::size_t prev = p == 0 ? 0 : (order != nullptr ? order[p - 1] : p - 1);
    if (p == 0 || row[j] != row[prev]) sink.note_packet_with_records();
    sink.append(std::move(records[j]));
  }
}

void Switch::process(const net::Packet& packet, std::vector<EmitRecord>& out) {
  const Tuple source = query::materialize_tuple(packet);
  scratch_sink_.clear();
  process_batch({&source, 1}, scratch_sink_);
  for (EmitRecord& rec : scratch_sink_.records()) out.push_back(std::move(rec));
}

int Switch::update_filter_entries(const std::string& table_name,
                                  std::vector<query::Tuple> entries) {
  int updated = 0;
  for (auto& p : pipelines_) {
    // Each pipeline gets its own copy: entry sets are per-table state.
    if (p->set_filter_entries(table_name, entries)) {
      ++updated;
      stats_.filter_entry_updates += entries.size();
      derive_control_latency();
    }
  }
  if (updated > 0 && obs::enabled()) {
    const std::pair<std::string_view, std::string> labels[] = {{"sw", obs_label_},
                                                               {"table", table_name}};
    obs::Registry::global()
        .gauge(obs::labeled("sonata_pisa_filter_entries", labels))
        .set(static_cast<std::int64_t>(entries.size()));
  }
  return updated;
}

bool Switch::block(const std::string& field, const query::Value& key) {
  const auto idx = query::source_schema().index_of(field);
  if (!idx) return false;
  for (auto& [col, keys] : blocks_) {
    if (col == *idx) {
      if (keys.insert(key).second) {
        ++stats_.filter_entry_updates;
        derive_control_latency();
      }
      return true;
    }
  }
  blocks_.push_back({*idx, {key}});
  ++stats_.filter_entry_updates;
  derive_control_latency();
  return true;
}

void Switch::clear_blocks() { blocks_.clear(); }

std::size_t Switch::blocked_keys() const noexcept {
  std::size_t n = 0;
  for (const auto& [col, keys] : blocks_) n += keys.size();
  return n;
}

void Switch::reset_all_registers() {
  publish_obs();  // occupancy gauges must see the pre-reset register state
  for (auto& p : pipelines_) p->reset_registers();
  ++stats_.register_resets;
  derive_control_latency();
}

void Switch::derive_control_latency() noexcept {
  stats_.control_update_millis =
      kMillisPerEntryUpdate * static_cast<double>(stats_.filter_entry_updates) +
      kMillisPerRegisterReset * static_cast<double>(stats_.register_resets);
}

}  // namespace sonata::pisa
