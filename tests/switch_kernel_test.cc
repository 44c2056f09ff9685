// The switch's pipeline-at-a-time kernel against a per-packet oracle.
//
// The oracle is the Tuple interpreter the switch used before its column
// kernels: every packet runs through every pipeline in turn, filters and
// maps are Expr::bind evaluators, stateful keys are Tuples, and registers
// are slots holding Tuple keys. It lives only here. Every test drives the
// real Switch and the oracle with the same packets and compares them
// record for record — kind, qid, level, source, op_index, tuple and order
// — plus packets_with_records, the switch counters, and the end-of-window
// poll_aggregates / poll_block contents and order.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "pisa/compile.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "runtime/plan_install.h"
#include "state/hashpipe.h"
#include "trace/trace.h"
#include "util/ip.h"
#include "util/rng.h"

namespace sonata::pisa {
namespace {

using query::OpKind;
using query::Operator;
using query::Schema;
using query::Tuple;
using query::Value;
using util::ipv4;

// ---------------------------------------------------------------------------
// The oracle: per-packet interpreter over Tuples.

class OracleChain {
 public:
  explicit OracleChain(const RegisterChainConfig& cfg)
      : cfg_(cfg),
        hashes_(static_cast<std::size_t>(cfg.depth),
                cfg.hash_seed != 0 ? cfg.hash_seed : 0x5eed5eed5eed5eedULL) {
    if (cfg_.hashpipe) {
      hp_ = std::make_unique<state::HashPipeChain>(state::HashPipeConfig{
          .entries_per_stage = cfg_.entries_per_register,
          .stages = cfg_.depth,
          .hash_seed = cfg_.hash_seed,
      });
      return;
    }
    registers_.assign(static_cast<std::size_t>(cfg_.depth),
                      std::vector<Slot>(cfg_.entries_per_register));
  }

  RegisterChain::UpdateResult update(const Tuple& key, std::uint64_t delta, query::ReduceFn fn) {
    if (hp_) {
      const auto r = hp_->update(key, delta, fn);
      return {.stored = true, .newly_inserted = r.newly_inserted, .probes = r.probes,
              .value = r.value};
    }
    const std::uint64_t fp = key.hash();
    for (std::size_t d = 0; d < registers_.size(); ++d) {
      Slot& slot = registers_[d][hashes_.index(d, fp, cfg_.entries_per_register)];
      if (!slot.occupied) {
        slot = Slot{true, false, key, delta};
        return {.stored = true, .newly_inserted = true, .probes = static_cast<int>(d) + 1,
                .value = delta};
      }
      if (slot.key == key) {
        slot.value = apply_reduce(fn, slot.value, delta);
        return {.stored = true, .probes = static_cast<int>(d) + 1, .value = slot.value};
      }
    }
    return {.overflow = true, .probes = cfg_.depth};
  }

  bool mark_reported(const Tuple& key) {
    if (hp_) return hp_->mark_reported(key);
    const std::uint64_t fp = key.hash();
    for (std::size_t d = 0; d < registers_.size(); ++d) {
      Slot& slot = registers_[d][hashes_.index(d, fp, cfg_.entries_per_register)];
      if (slot.occupied && slot.key == key) {
        const bool first = !slot.reported;
        slot.reported = true;
        return first;
      }
    }
    return false;
  }

  // Register by register, slot-ascending.
  [[nodiscard]] std::vector<std::pair<Tuple, std::uint64_t>> entries() const {
    if (hp_) return hp_->entries();
    std::vector<std::pair<Tuple, std::uint64_t>> out;
    for (const auto& reg : registers_) {
      for (const Slot& s : reg) {
        if (s.occupied) out.emplace_back(s.key, s.value);
      }
    }
    return out;
  }

  void reset() {
    if (hp_) {
      hp_->reset();
      return;
    }
    for (auto& reg : registers_) std::fill(reg.begin(), reg.end(), Slot{});
  }

 private:
  struct Slot {
    bool occupied = false;
    bool reported = false;
    Tuple key;
    std::uint64_t value = 0;
  };
  RegisterChainConfig cfg_;
  util::HashFamily hashes_;
  std::vector<std::vector<Slot>> registers_;
  std::unique_ptr<state::HashPipeChain> hp_;
};

class OraclePipeline {
 public:
  OraclePipeline(const query::StreamNode& node, CompiledSwitchQuery::Options opts)
      : node_(node), opts_(std::move(opts)) {
    for (std::size_t i = 0; i < opts_.partition; ++i) {
      const Operator& op = node_.ops[i];
      const Schema& in = node_.schemas[i];
      Op cop;
      cop.kind = op.kind;
      cop.op_index = i;
      const auto chain = [&](int value_bits, bool hashpipe) {
        const auto it = opts_.sizing.find(i);
        const RegisterSizing rs = it != opts_.sizing.end() ? it->second : RegisterSizing{};
        return std::make_unique<OracleChain>(RegisterChainConfig{
            .entries_per_register = rs.entries,
            .depth = rs.depth,
            .value_bits = value_bits,
            .hash_seed = opts_.hash_seed,
            .hashpipe = hashpipe && rs.sketch});
      };
      switch (op.kind) {
        case OpKind::kFilter:
          if (foldable_threshold(node_, i)) continue;
          cop.pred = op.predicate->bind(in);
          break;
        case OpKind::kFilterIn:
          for (const auto& m : op.match_exprs) cop.match.push_back(m->bind(in));
          cop.table_name = op.table_name;
          break;
        case OpKind::kMap:
          for (const auto& p : op.projections) cop.projections.push_back(p.expr->bind(in));
          break;
        case OpKind::kDistinct:
          cop.chain = chain(1, false);
          break;
        case OpKind::kReduce:
          for (const auto& k : op.keys) cop.key_idx.push_back(*in.index_of(k));
          cop.value_idx = *in.index_of(op.value_col);
          cop.fn = op.fn;
          cop.chain = chain(32, true);
          if (i + 1 < opts_.partition) cop.folded = foldable_threshold(node_, i + 1);
          break;
      }
      ops_.push_back(std::move(cop));
    }
    if (!ops_.empty() && ops_.back().kind == OpKind::kReduce) {
      tail_ = &ops_.back();
      poll_entry_ = tail_->op_index;
    } else {
      poll_entry_ = opts_.partition;
    }
  }

  bool process_into(const Tuple& source, EmitSink& sink) {
    ++packets_seen_;
    Tuple cur = source;
    const auto emit = [&](EmitRecord::Kind kind, std::size_t op_index, Tuple t) {
      ++emitted_;
      sink.append(EmitRecord{kind, opts_.qid, opts_.source_index, opts_.level, op_index,
                             std::move(t)});
    };
    for (Op& op : ops_) {
      switch (op.kind) {
        case OpKind::kFilter:
          if (op.pred(cur).as_uint() == 0) return false;
          break;
        case OpKind::kFilterIn: {
          Tuple key;
          for (const auto& m : op.match) key.values.push_back(m(cur));
          if (harvest_) harvested_[op.table_name].push_back(key);
          if (!op.entries.contains(key)) return false;
          break;
        }
        case OpKind::kMap: {
          Tuple next;
          for (const auto& p : op.projections) next.values.push_back(p(cur));
          cur = std::move(next);
          break;
        }
        case OpKind::kDistinct: {
          const auto r = op.chain->update(cur, 1, query::ReduceFn::kBitOr);
          ++probe_tally_[std::min(r.probes, CompiledSwitchQuery::kProbeTallyMax)];
          if (r.overflow) {
            ++overflows_;
            emit(EmitRecord::Kind::kOverflow, op.op_index, cur);
            return true;
          }
          if (!r.newly_inserted) return false;
          break;
        }
        case OpKind::kReduce: {
          Tuple key = query::project(cur, op.key_idx);
          const auto r = op.chain->update(key, cur.at(op.value_idx).as_uint(), op.fn);
          ++probe_tally_[std::min(r.probes, CompiledSwitchQuery::kProbeTallyMax)];
          if (r.overflow) {
            ++overflows_;
            emit(EmitRecord::Kind::kOverflow, op.op_index, cur);
            return true;
          }
          bool report = r.newly_inserted;
          if (op.folded) {
            const bool passes = op.folded->strict ? r.value > op.folded->threshold
                                                  : r.value >= op.folded->threshold;
            report = passes && op.chain->mark_reported(key);
          }
          if (!report) return false;
          key.values.emplace_back(r.value);
          ++key_reports_;
          emit(EmitRecord::Kind::kKeyReport, poll_entry_, std::move(key));
          return true;
        }
      }
    }
    emit(EmitRecord::Kind::kStream, opts_.partition, cur);
    return true;
  }

  [[nodiscard]] std::vector<Tuple> poll_aggregates() const {
    std::vector<Tuple> out;
    if (tail_ == nullptr) return out;
    const Schema& in = node_.schemas[tail_->op_index];
    for (const auto& [key, value] : tail_->chain->entries()) {
      Tuple t;
      t.values.assign(in.size(), Value{std::uint64_t{0}});
      for (std::size_t k = 0; k < tail_->key_idx.size(); ++k) t.values[tail_->key_idx[k]] = key.at(k);
      t.values[tail_->value_idx] = Value{value};
      out.push_back(std::move(t));
    }
    return out;
  }

  [[nodiscard]] std::vector<std::pair<Tuple, std::uint64_t>> poll_partial() const {
    if (tail_ == nullptr) return {};
    return tail_->chain->entries();
  }

  void reset_registers() {
    for (Op& op : ops_) {
      if (op.chain) op.chain->reset();
    }
  }

  bool set_filter_entries(const std::string& table, const std::vector<Tuple>& entries) {
    for (Op& op : ops_) {
      if (op.kind == OpKind::kFilterIn && op.table_name == table) {
        op.entries = {entries.begin(), entries.end()};
        return true;
      }
    }
    return false;
  }

  // While on, every filter_in key computed is recorded per table.
  void set_harvest(bool on) { harvest_ = on; }
  std::map<std::string, std::vector<Tuple>>& harvested() { return harvested_; }

  std::uint64_t packets_seen_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t key_reports_ = 0;
  std::uint64_t probe_tally_[CompiledSwitchQuery::kProbeTallyMax + 1] = {};

 private:
  struct Op {
    OpKind kind = OpKind::kFilter;
    std::size_t op_index = 0;
    query::Expr::Evaluator pred;
    std::vector<query::Expr::Evaluator> match;
    std::string table_name;
    std::unordered_set<Tuple, query::TupleHasher> entries;
    std::vector<query::Expr::Evaluator> projections;
    std::vector<std::size_t> key_idx;
    std::size_t value_idx = 0;
    query::ReduceFn fn = query::ReduceFn::kSum;
    std::unique_ptr<OracleChain> chain;
    std::optional<FoldedThreshold> folded;
  };

  const query::StreamNode& node_;
  CompiledSwitchQuery::Options opts_;
  std::vector<Op> ops_;
  Op* tail_ = nullptr;
  std::size_t poll_entry_ = 0;
  bool harvest_ = false;
  std::map<std::string, std::vector<Tuple>> harvested_;
};

// The pre-kernel Switch: guard table, then every pipeline per packet.
struct OracleSwitch {
  std::vector<std::unique_ptr<OraclePipeline>> pipelines;
  std::vector<std::pair<std::size_t, std::unordered_set<Value, query::ValueHasher>>> blocks;
  SwitchStats stats;

  void process_one(const Tuple& source, EmitSink& sink) {
    ++stats.packets_processed;
    for (const auto& [col, keys] : blocks) {
      if (col < source.size() && keys.contains(source.at(col))) {
        ++stats.dropped_packets;
        return;
      }
    }
    const std::size_t before = sink.size();
    for (auto& p : pipelines) {
      if (p->process_into(source, sink)) {
        ++stats.records_emitted;
        if (sink.records().back().kind == EmitRecord::Kind::kOverflow) ++stats.overflow_records;
      }
    }
    if (sink.size() != before) sink.note_packet_with_records();
  }

  void block(const std::string& field, const Value& key) {
    const std::size_t col = *query::source_schema().index_of(field);
    for (auto& [c, keys] : blocks) {
      if (c == col) {
        keys.insert(key);
        return;
      }
    }
    blocks.push_back({col, {key}});
  }
};

// ---------------------------------------------------------------------------
// Fixture: one trace with every catalog query's attack, and a Switch plus
// its oracle built from the same (node, options) pairs.

queries::Thresholds thresholds() {
  queries::Thresholds th;
  th.newly_opened = 60;
  th.ssh_brute = 10;
  th.superspreader = 40;
  th.port_scan = 30;
  th.ddos = 60;
  th.syn_flood = 50;
  th.incomplete_flows = 40;
  th.slowloris_bytes = 5000;
  th.slowloris_ratio = 1500;
  th.dns_tunnel = 20;
  th.zorro_probes = 10;
  th.zorro_keyword = 1;
  th.dns_reflection = 50;
  th.fast_flux = 20;
  return th;
}

const std::vector<query::Query>& catalog() {
  static const auto* qs = new std::vector<query::Query>(
      queries::full_catalog(thresholds(), util::seconds(1)));
  return *qs;
}

const std::vector<net::Packet>& packets() {
  static const auto* trace = [] {
    trace::BackgroundConfig bg;
    bg.duration_sec = 3.0;
    bg.flows_per_sec = 150.0;
    bg.telnet_fraction = 0.1;
    trace::TraceBuilder b(77);
    b.background(bg);
    b.add(trace::SynFloodConfig{.victim = ipv4(99, 1, 0, 25), .start_sec = 0.2,
                                .duration_sec = 2.5, .pps = 200});
    b.add(trace::SshBruteForceConfig{.victim = ipv4(77, 2, 0, 10), .start_sec = 0.2,
                                     .duration_sec = 2.5, .attempts_per_sec = 40});
    b.add(trace::SuperspreaderConfig{.spreader = ipv4(55, 3, 0, 7), .start_sec = 0.2,
                                     .duration_sec = 2.5, .distinct_destinations = 400});
    b.add(trace::PortScanConfig{.scanner = ipv4(44, 4, 0, 3), .target = ipv4(201, 10, 0, 1),
                                .start_sec = 0.2, .duration_sec = 2.5, .last_port = 600});
    b.add(trace::DdosConfig{.victim = ipv4(66, 5, 0, 9), .start_sec = 0.2, .duration_sec = 2.5,
                            .distinct_sources = 400, .pps = 300});
    b.add(trace::SlowlorisConfig{.victim = ipv4(33, 7, 0, 4), .start_sec = 0.2,
                                 .duration_sec = 2.5, .attacker_count = 3,
                                 .conns_per_attacker = 100});
    b.add(trace::ZorroConfig{.attacker = ipv4(203, 9, 9, 9), .victim = ipv4(99, 7, 0, 25),
                             .start_sec = 0.2, .probe_duration_sec = 2.0, .probe_pps = 60,
                             .shell_at_sec = 2.0});
    b.add(trace::DnsTunnelConfig{.client = ipv4(10, 20, 30, 40), .resolver = ipv4(8, 8, 8, 8),
                                 .start_sec = 0.2, .duration_sec = 2.5,
                                 .queries_per_sec = 60});
    b.add(trace::DnsReflectionConfig{.victim = ipv4(198, 51, 100, 99), .start_sec = 0.2,
                                     .duration_sec = 2.5, .reflector_count = 100,
                                     .pps = 150});
    b.add(trace::MaliciousDomainConfig{.resolver = ipv4(9, 9, 9, 9), .start_sec = 0.2,
                                       .duration_sec = 2.5, .distinct_resolutions = 200});
    return new std::vector<net::Packet>(b.build());
  }();
  return *trace;
}

// Resources that always fit: the oracle comparison is about execution,
// not stage layout.
SwitchConfig roomy() {
  SwitchConfig cfg;
  cfg.stages = 4096;
  cfg.stateful_actions_per_stage = 4096;
  cfg.stateless_actions_per_stage = 4096;
  cfg.register_bits_per_stage = ~std::uint64_t{0} >> 4;
  cfg.max_bits_per_register = ~std::uint64_t{0} >> 4;
  cfg.metadata_bits = ~std::uint64_t{0} >> 4;
  return cfg;
}

struct Spec {
  const query::StreamNode* node;
  CompiledSwitchQuery::Options opts;
};

class KernelVsOracle {
 public:
  explicit KernelVsOracle(const std::vector<Spec>& specs) : sw_(roomy()) {
    std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines;
    std::vector<ProgramResources> resources;
    for (const Spec& s : specs) {
      pipelines.push_back(std::make_unique<CompiledSwitchQuery>(*s.node, s.opts));
      oracle_.pipelines.push_back(std::make_unique<OraclePipeline>(*s.node, s.opts));
      resources.push_back(build_resources(*s.node, s.opts.partition, s.opts.sizing, s.opts.qid,
                                          s.opts.source_index, s.opts.level));
    }
    const std::string err = sw_.install(std::move(pipelines), resources);
    EXPECT_EQ(err, "");
  }

  Switch& sw() { return sw_; }
  OracleSwitch& oracle() { return oracle_; }

  // Install the same dynamic-filter entries on both.
  void set_entries(const std::string& table, const std::vector<Tuple>& keys) {
    sw_.update_filter_entries(table, keys);
    for (auto& p : oracle_.pipelines) p->set_filter_entries(table, keys);
  }

  void block(const std::string& field, const Value& key) {
    ASSERT_TRUE(sw_.block(field, key));
    oracle_.block(field, key);
  }

  // Feed one window in batches of `batch` (comparing after every batch),
  // then compare the polls and reset both.
  void run_window(std::span<const net::Packet> window, std::size_t batch) {
    std::vector<Tuple> tuples;
    for (const auto& p : window) tuples.push_back(query::materialize_tuple(p));
    for (std::size_t off = 0; off < tuples.size(); off += batch) {
      const std::span<const Tuple> chunk(tuples.data() + off,
                                         std::min(batch, tuples.size() - off));
      EmitSink got;
      EmitSink want;
      sw_.process_batch(chunk, got);
      for (const Tuple& t : chunk) oracle_.process_one(t, want);
      expect_same_records(got, want, off);
      if (::testing::Test::HasFailure()) return;
    }
    expect_same_counters();
    expect_same_polls();
    sw_.reset_all_registers();
    for (auto& p : oracle_.pipelines) p->reset_registers();
  }

  std::uint64_t records = 0;
  std::uint64_t overflow_records = 0;

 private:
  void expect_same_records(const EmitSink& got, const EmitSink& want, std::size_t off) {
    ASSERT_EQ(got.size(), want.size()) << "batch at packet " << off;
    EXPECT_EQ(got.packets_with_records(), want.packets_with_records()) << "batch at " << off;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const EmitRecord& g = got.records()[i];
      const EmitRecord& w = want.records()[i];
      ASSERT_EQ(g.kind, w.kind) << "record " << i << " of batch at " << off;
      ASSERT_EQ(g.qid, w.qid) << "record " << i << " of batch at " << off;
      ASSERT_EQ(g.level, w.level) << "record " << i;
      ASSERT_EQ(g.source_index, w.source_index) << "record " << i;
      ASSERT_EQ(g.op_index, w.op_index) << "record " << i;
      ASSERT_EQ(g.tuple, w.tuple) << "record " << i << ": " << g.tuple.to_string() << " vs "
                                  << w.tuple.to_string();
      overflow_records += g.kind == EmitRecord::Kind::kOverflow ? 1 : 0;
    }
    records += got.size();
  }

  void expect_same_counters() {
    const SwitchStats& s = sw_.stats();
    EXPECT_EQ(s.packets_processed, oracle_.stats.packets_processed);
    EXPECT_EQ(s.records_emitted, oracle_.stats.records_emitted);
    EXPECT_EQ(s.overflow_records, oracle_.stats.overflow_records);
    EXPECT_EQ(s.dropped_packets, oracle_.stats.dropped_packets);
    for (std::size_t i = 0; i < sw_.pipelines().size(); ++i) {
      const CompiledSwitchQuery& g = *sw_.pipelines()[i];
      const OraclePipeline& w = *oracle_.pipelines[i];
      EXPECT_EQ(g.packets_seen(), w.packets_seen_) << "pipeline " << i;
      EXPECT_EQ(g.records_emitted(), w.emitted_) << "pipeline " << i;
      EXPECT_EQ(g.overflow_records(), w.overflows_) << "pipeline " << i;
      EXPECT_EQ(g.key_report_records(), w.key_reports_) << "pipeline " << i;
      for (int d = 0; d <= CompiledSwitchQuery::kProbeTallyMax; ++d) {
        EXPECT_EQ(g.probe_tally()[static_cast<std::size_t>(d)], w.probe_tally_[d])
            << "pipeline " << i << " depth " << d;
      }
    }
  }

  void expect_same_polls() {
    for (std::size_t i = 0; i < sw_.pipelines().size(); ++i) {
      const CompiledSwitchQuery& g = *sw_.pipelines()[i];
      const OraclePipeline& w = *oracle_.pipelines[i];
      EXPECT_EQ(g.poll_aggregates(), w.poll_aggregates()) << "pipeline " << i;
      PolledBlock block;
      g.poll_block(block);
      const auto want = w.poll_partial();
      ASSERT_EQ(block.size(), want.size()) << "pipeline " << i;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(block.key_tuple(k), want[k].first) << "pipeline " << i << " entry " << k;
        EXPECT_EQ(block.hash(k), want[k].first.hash()) << "pipeline " << i << " entry " << k;
        EXPECT_EQ(block.value(k), want[k].second) << "pipeline " << i << " entry " << k;
      }
    }
  }

  Switch sw_;
  OracleSwitch oracle_;
};

std::vector<std::span<const net::Packet>> windows() {
  return trace::split_windows(packets(), util::seconds(1));
}

// Every source of every catalog query with its full switch prefix, sized
// by `sizing(node, op index)`.
std::vector<Spec> catalog_specs(
    const std::function<RegisterSizing(const query::StreamNode&, std::size_t)>& sizing) {
  std::vector<Spec> out;
  for (const query::Query& q : catalog()) {
    const auto sources = q.sources();
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const query::StreamNode& node = *sources[s];
      const std::size_t partition = max_switch_prefix(node);
      if (partition == 0) continue;
      CompiledSwitchQuery::Options o;
      o.qid = q.id();
      o.source_index = static_cast<int>(s);
      o.partition = partition;
      for (std::size_t i = 0; i < partition; ++i) {
        if (node.ops[i].stateful()) o.sizing[i] = sizing(node, i);
      }
      out.push_back({&node, std::move(o)});
    }
  }
  return out;
}

constexpr std::size_t kBatches[] = {1, 7, 16, 256};

class KernelBatches : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelBatches, EveryCatalogQueryMatchesTheOracle) {
  // Covers the DNS tunnel (string dns.rr.name register key), fast flux
  // (string reduce key) and Zorro (payload column in every streamed row
  // after the switch prefix).
  KernelVsOracle k(catalog_specs(
      [](const query::StreamNode&, std::size_t) { return RegisterSizing{4096, 2, false}; }));
  for (const auto& w : windows()) k.run_window(w, GetParam());
  EXPECT_GT(k.records, 0u);
}

TEST_P(KernelBatches, SmallRegistersOverflowAtEveryDepth) {
  for (int depth = 1; depth <= 4; ++depth) {
    SCOPED_TRACE(depth);
    KernelVsOracle k(catalog_specs([depth](const query::StreamNode&, std::size_t) {
      return RegisterSizing{16, depth, false};
    }));
    for (const auto& w : windows()) k.run_window(w, GetParam());
    EXPECT_GT(k.overflow_records, 0u);
  }
}

TEST_P(KernelBatches, HashPipeSketchOps) {
  KernelVsOracle k(catalog_specs([](const query::StreamNode& node, std::size_t i) {
    return RegisterSizing{32, 3, node.ops[i].kind == OpKind::kReduce};
  }));
  for (const auto& w : windows()) k.run_window(w, GetParam());
  EXPECT_GT(k.records, 0u);
}

TEST_P(KernelBatches, GuardTableBlockedKeys) {
  KernelVsOracle k(catalog_specs(
      [](const query::StreamNode&, std::size_t) { return RegisterSizing{1024, 2, false}; }));
  k.block("dIP", Value{std::uint64_t{ipv4(66, 5, 0, 9)}});
  k.block("dIP", Value{std::uint64_t{ipv4(99, 1, 0, 25)}});
  k.block("sIP", Value{std::uint64_t{ipv4(55, 3, 0, 7)}});
  for (const auto& w : windows()) k.run_window(w, GetParam());
  EXPECT_GT(k.sw().stats().dropped_packets, 0u);
}

TEST_P(KernelBatches, RefinedLevelsWithInstalledWinners) {
  planner::PlannerConfig cfg;
  cfg.window = util::seconds(1);
  cfg.max_delay_windows = 3;
  cfg.search_node_cap = 2000;
  const auto plan = planner::Planner(cfg).plan(catalog(), packets());
  std::vector<Spec> specs;
  std::vector<std::unique_ptr<CompiledSwitchQuery>> compiled =
      runtime::build_pipelines(plan, {}).pipelines;
  std::size_t tables = 0;
  for (const auto& p : compiled) {
    specs.push_back({&p->node(), p->options()});
    for (std::size_t i = 0; i < p->options().partition; ++i) {
      tables += p->node().ops[i].kind == OpKind::kFilterIn ? 1 : 0;
    }
  }
  ASSERT_GT(tables, 0u) << plan.summary();
  // Winners: every other filter_in key a scout oracle computes on the
  // first window, installed on both sides before any window runs.
  OracleSwitch scout;
  for (const Spec& s : specs) {
    scout.pipelines.push_back(std::make_unique<OraclePipeline>(*s.node, s.opts));
    scout.pipelines.back()->set_harvest(true);
  }
  const auto ws = windows();
  EmitSink ignored;
  for (const auto& pkt : ws.front()) scout.process_one(query::materialize_tuple(pkt), ignored);
  std::map<std::string, std::vector<Tuple>> winners;
  for (auto& p : scout.pipelines) {
    for (auto& [table, keys] : p->harvested()) {
      for (std::size_t i = 0; i < keys.size(); i += 2) winners[table].push_back(keys[i]);
    }
  }
  ASSERT_FALSE(winners.empty());
  KernelVsOracle k(specs);
  for (const auto& [table, keys] : winners) k.set_entries(table, keys);
  for (const auto& w : ws) k.run_window(w, GetParam());
  EXPECT_GT(k.records, 0u);
}

INSTANTIATE_TEST_SUITE_P(Batch, KernelBatches, ::testing::ValuesIn(kBatches),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "b" + std::to_string(info.param);
                         });

// process_into and the Tuple-keyed register interface are batches of one
// through the same code; they agree with the oracle too.
TEST(KernelSingle, ProcessIntoMatchesOracle) {
  const auto specs = catalog_specs(
      [](const query::StreamNode&, std::size_t) { return RegisterSizing{64, 2, false}; });
  for (const Spec& s : specs) {
    CompiledSwitchQuery got(*s.node, s.opts);
    OraclePipeline want(*s.node, s.opts);
    for (const auto& pkt : packets()) {
      const Tuple t = query::materialize_tuple(pkt);
      EmitSink a;
      EmitSink b;
      ASSERT_EQ(got.process_into(t, a), want.process_into(t, b));
      ASSERT_EQ(a.size(), b.size());
      if (a.size() == 1) {
        ASSERT_EQ(a.records()[0].tuple, b.records()[0].tuple);
        ASSERT_EQ(a.records()[0].kind, b.records()[0].kind);
      }
    }
  }
}

TEST(KernelSingle, StringKeysStayExactInPackedSlots) {
  // A string key column holds the name's hash in the slot and the name in
  // the side array; one slot per register forces a collision chain.
  RegisterChain chain({.entries_per_register = 1, .depth = 2, .key_bits = 64, .value_bits = 32,
                       .key_kinds = {query::ValueKind::kString}});
  const Tuple a{{Value{std::string("a.example.com")}}};
  const Tuple b{{Value{std::string("b.example.com")}}};
  EXPECT_TRUE(chain.update(a, 1, query::ReduceFn::kSum).newly_inserted);
  EXPECT_TRUE(chain.update(b, 1, query::ReduceFn::kSum).newly_inserted);
  EXPECT_EQ(chain.update(a, 2, query::ReduceFn::kSum).value, 3u);
  EXPECT_TRUE(chain.update(Tuple{{Value{std::string("c.example.com")}}}, 1, query::ReduceFn::kSum)
                  .overflow);
  const auto entries = chain.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, a);
  EXPECT_EQ(entries[1].first, b);
  EXPECT_LE(chain.slot_bytes(), 16u);
}

TEST(KernelSingle, EqualWordsWithDifferentStringsAreDifferentKeys) {
  // The words of a string column are its hash; two names whose words agree
  // (a hash collision, forged here) must still be told apart by their bytes.
  RegisterChain chain({.entries_per_register = 64, .depth = 2, .key_bits = 64, .value_bits = 32,
                       .key_kinds = {query::ValueKind::kString}});
  const Value a{std::string("a.example.com")};
  const Value b{std::string("b.example.com")};
  const std::uint64_t words[] = {42, 42, 42};
  const Value* strings[] = {&a, &b, &a};
  const std::uint64_t fps[] = {7, 7, 7};
  const std::uint64_t slots[] = {chain.prepare(7), chain.prepare(7), chain.prepare(7)};
  RegisterChain::UpdateResult out[3];
  for (std::size_t k = 0; k < 3; ++k) {
    out[k] = chain.update_prepared<0>(&words[k], &strings[k], fps[k], slots[k], 1,
                                      query::ReduceFn::kSum, nullptr);
  }
  EXPECT_TRUE(out[0].newly_inserted);
  EXPECT_TRUE(out[1].newly_inserted);  // same words, other bytes: a second key
  EXPECT_EQ(out[1].probes, 2);
  EXPECT_FALSE(out[2].newly_inserted);
  EXPECT_EQ(out[2].value, 2u);
  EXPECT_EQ(chain.keys_stored(), 2u);
}

// Lowered expressions against Expr::bind on random well-typed expressions
// over real packets: every operator, both operand orders of the fused
// column-constant compare, prefixes, and string comparisons.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  query::ExprPtr numeric(int depth) {
    using query::Expr;
    static const char* kCols[] = {"sIP", "dIP", "sPort", "dPort", "proto", "tcp.flags",
                                  "pktlen", "nBytes", "ttl", "dns.qtype", "dns.qr"};
    const std::uint64_t pick = depth <= 0 ? rng_() % 2 : rng_() % 7;
    switch (pick) {
      case 0: return Expr::column(kCols[rng_() % std::size(kCols)]);
      case 1: {
        static const std::uint64_t kLits[] = {0, 1, 2, 6, 17, 22, 23, 53, 64, 255, 1500};
        return Expr::lit(rng_() % 4 == 0 ? rng_() : kLits[rng_() % std::size(kLits)]);
      }
      case 2:
      case 3:
        return Expr::bin(static_cast<query::BinOp>(rng_() % 17), numeric(depth - 1),
                         numeric(depth - 1));
      case 4: {
        // Column against a constant, either side: the fused filter shape.
        static const query::BinOp kCmp[] = {query::BinOp::kEq, query::BinOp::kNe,
                                            query::BinOp::kLt, query::BinOp::kLe,
                                            query::BinOp::kGt, query::BinOp::kGe};
        auto col = numeric(0);
        auto lit = Expr::lit(rng_() % 70);
        const auto op = kCmp[rng_() % std::size(kCmp)];
        return rng_() % 2 ? Expr::bin(op, col, lit) : Expr::bin(op, lit, col);
      }
      case 5:
        return Expr::ip_prefix(numeric(depth - 1), static_cast<int>(rng_() % 33));
      default: {
        static const query::BinOp kCmp[] = {query::BinOp::kEq, query::BinOp::kNe,
                                            query::BinOp::kLt, query::BinOp::kGe};
        if (rng_() % 3 == 0) return Expr::payload_contains(Expr::column("payload"), "zorro");
        return Expr::bin(kCmp[rng_() % std::size(kCmp)], string(depth - 1), string(depth - 1));
      }
    }
  }

  query::ExprPtr string(int depth) {
    using query::Expr;
    switch (depth <= 0 ? rng_() % 2 : rng_() % 3) {
      case 0: return Expr::column(rng_() % 4 == 0 ? "payload" : "dns.rr.name");
      case 1: {
        static const char* kLits[] = {"", "com", "example.com", "tun.evil-exfil.com"};
        return Expr::lit(std::string(kLits[rng_() % std::size(kLits)]));
      }
      default:
        return Expr::dns_prefix(string(depth - 1), static_cast<int>(rng_() % 4));
    }
  }

 private:
  util::Rng rng_;
};

TEST(KernelExpr, LoweredExpressionsMatchBind) {
  const Schema schema = query::source_schema();
  std::vector<std::uint32_t> env(schema.size());
  for (std::uint32_t c = 0; c < env.size(); ++c) env[c] = c;
  kernel::PhvBuffer phv;
  phv.configure(env, schema);
  std::vector<Tuple> rows;
  for (std::size_t i = 0; i < packets().size() && rows.size() < kernel::kBlock; i += 7) {
    rows.push_back(query::materialize_tuple(packets()[i]));
  }
  const kernel::Phv& block = phv.gather(rows);
  std::vector<kernel::Column> cols(block.cols.begin(), block.cols.end());
  kernel::Scratch s;
  ExprGen gen(2024);
  for (int i = 0; i < 3000; ++i) {
    const bool want_string = i % 5 == 0;
    const query::ExprPtr e = want_string ? gen.string(3) : gen.numeric(3);
    ASSERT_EQ(e->validate(schema), "") << e->to_string();
    const auto bound = e->bind(schema);
    const kernel::ColumnExpr lowered(*e, schema, env);
    ASSERT_EQ(lowered.string_result(), want_string) << e->to_string();
    std::vector<std::uint32_t> sel(rows.size());
    for (std::uint32_t r = 0; r < sel.size(); ++r) sel[r] = r;
    s.release();
    const kernel::Temp t = s.temp(want_string);
    lowered.eval(cols.data(), sel.data(), sel.size(), s, t);
    std::vector<std::uint32_t> passing;
    for (std::uint32_t r = 0; r < rows.size(); ++r) {
      const Value v = bound(rows[r]);
      if (want_string) {
        ASSERT_EQ(*t.strings[r], v) << e->to_string() << " row " << r;
        ASSERT_EQ(t.words[r], v.hash()) << e->to_string() << " row " << r;
      } else {
        ASSERT_EQ(t.words[r], v.as_uint()) << e->to_string() << " row " << r;
      }
      if (v.as_uint() != 0) passing.push_back(r);
    }
    const std::size_t kept = lowered.narrow(cols.data(), sel.data(), sel.size(), s);
    sel.resize(kept);
    ASSERT_EQ(sel, passing) << e->to_string();
  }
}

}  // namespace
}  // namespace sonata::pisa
