// The column close (stream/executor.h RowBlock path) against the Tuple
// close it replaced.
//
// The oracle is that former close, kept only here: every reduce drains as
// (key Tuple, aggregate) pairs that run the rest of the chain one tuple at
// a time into a pending vector, and a join projects each row's key into a
// Tuple, hashes it and builds a Tuple-keyed hash index over the right side.
// It is run window for window against the QueryExecutor (All-SP replay) and
// against the StreamProcessor close of a Fleet, whose oracle driver routes
// records, feeds the raw mirror, folds polls the former way (shaped Tuples
// ingested at the reduce) and refines coarse to fine with oracle executors.
// Outputs must match in order, and so must winners, the SP's tuples_in and
// the stream executors' tuple counter.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "runtime/fleet.h"
#include "runtime/plan_install.h"
#include "runtime/stream_processor.h"
#include "state/engine.h"
#include "stream/executor.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/flat_table.h"
#include "util/hash.h"

namespace sonata {
namespace {

using planner::Plan;
using planner::PlanMode;
using planner::Planner;
using planner::PlannerConfig;
using query::OpKind;
using query::Schema;
using query::StreamNode;
using query::Tuple;

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario();
  return sc;
}

// The scenario's background with a DNS tunnel: string-keyed state.
const std::vector<net::Packet>& dns_trace() {
  static const std::vector<net::Packet> trace = [] {
    trace::BackgroundConfig bg;
    bg.duration_sec = 9.0;
    bg.flows_per_sec = 300.0;
    trace::TraceBuilder builder(11);
    builder.background(bg);
    trace::DnsTunnelConfig tunnel;
    tunnel.client = util::ipv4(10, 9, 8, 7);
    tunnel.resolver = util::ipv4(10, 0, 0, 53);
    tunnel.start_sec = 0.5;
    tunnel.duration_sec = 8.0;
    builder.add(tunnel);
    return builder.build();
  }();
  return trace;
}

class ScopedObs {
 public:
  ScopedObs() { obs::set_enabled(true); }
  ~ScopedObs() { obs::set_enabled(false); }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
};

std::uint64_t stream_counter() {
  return obs::Registry::global().counter("sonata_stream_tuples_total").value();
}

// --- the former Tuple close ---------------------------------------------------

class OracleChain {
 public:
  OracleChain(const StreamNode& node, const query::StateSpec& spec) {
    for (std::size_t i = 0; i < node.ops.size(); ++i) {
      const query::Operator& op = node.ops[i];
      const Schema& in = node.schemas[i];
      Op o;
      o.kind = op.kind;
      o.table_name = op.table_name;
      switch (op.kind) {
        case OpKind::kFilter: o.pred = op.predicate->bind(in); break;
        case OpKind::kFilterIn:
          for (const auto& m : op.match_exprs) o.match.push_back(m->bind(in));
          break;
        case OpKind::kMap:
          for (const auto& p : op.projections) o.projections.push_back(p.expr->bind(in));
          break;
        case OpKind::kDistinct: o.seen.configure(spec); break;
        case OpKind::kReduce:
          for (const auto& k : op.keys) o.key_idx.push_back(*in.index_of(k));
          o.value_idx = *in.index_of(op.value_col);
          o.agg.configure(spec, op.fn);
          break;
      }
      ops_.push_back(std::move(o));
    }
  }

  void ingest(Tuple t, std::size_t entry) {
    ++ingested_;
    process(std::move(t), entry);
  }

  std::vector<Tuple> end_window() {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].kind != OpKind::kReduce) continue;
      ops_[i].agg.drain_and_clear([&](Tuple&& key, std::uint64_t value) {
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

  void set_filter_entries(const std::string& table, const std::vector<Tuple>& entries) {
    for (Op& op : ops_) {
      if (op.kind != OpKind::kFilterIn || op.table_name != table) continue;
      op.entries.clear();
      for (const Tuple& e : entries) op.entries.insert(e);
    }
  }

  [[nodiscard]] std::uint64_t ingested() const noexcept { return ingested_; }

 private:
  struct Op {
    OpKind kind = OpKind::kFilter;
    query::Expr::Evaluator pred;
    std::vector<query::Expr::Evaluator> match;
    std::string table_name;
    util::FlatSet entries;
    std::vector<query::Expr::Evaluator> projections;
    std::vector<std::size_t> key_idx;
    std::size_t value_idx = 0;
    state::DistinctEngine seen;
    state::ReduceEngine agg;
  };

  void process(Tuple&& t, std::size_t i) {
    for (; i < ops_.size(); ++i) {
      Op& op = ops_[i];
      switch (op.kind) {
        case OpKind::kFilter:
          if (op.pred(t).as_uint() == 0) return;
          break;
        case OpKind::kFilterIn: {
          Tuple key;
          for (const auto& m : op.match) key.values.push_back(m(t));
          if (!op.entries.contains(key)) return;
          break;
        }
        case OpKind::kMap: {
          Tuple next;
          for (const auto& p : op.projections) next.values.push_back(p(t));
          t = std::move(next);
          break;
        }
        case OpKind::kDistinct:
          if (!op.seen.insert_new(t, t.hash())) return;
          break;
        case OpKind::kReduce: {
          Tuple key = query::project(t, op.key_idx);
          const std::uint64_t hash = key.hash();
          op.agg.update(std::move(key), hash, t.at(op.value_idx).as_uint());
          return;
        }
      }
    }
    pending_.push_back(std::move(t));
  }

  std::vector<Op> ops_;
  std::vector<Tuple> pending_;
  std::uint64_t ingested_ = 0;
};

class OracleNode {
 public:
  OracleNode(const StreamNode& node, const query::StateSpec& spec)
      : node_(node), chain_(node, spec) {
    if (node.kind != StreamNode::Kind::kJoin) return;
    left_ = std::make_unique<OracleNode>(*node.left, spec);
    right_ = std::make_unique<OracleNode>(*node.right, spec);
    const Schema& ls = node.left->output_schema();
    const Schema& rs = node.right->output_schema();
    for (const auto& k : node.join_keys) {
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

  std::vector<Tuple> end_window() {
    if (node_.kind == StreamNode::Kind::kJoin) {
      const std::vector<Tuple> lhs = left_->end_window();
      const std::vector<Tuple> rhs = right_->end_window();
      // key -> rhs rows with that key, in rhs order
      util::FlatMap<std::vector<std::size_t>> index;
      for (std::size_t r = 0; r < rhs.size(); ++r) {
        Tuple key = query::project(rhs[r], rkeys_);
        const std::uint64_t hash = key.hash();
        index.try_emplace(std::move(key), hash, {}).first->push_back(r);
      }
      for (const Tuple& l : lhs) {
        const Tuple key = query::project(l, lkeys_);
        const auto* rows = index.find(key, key.hash());
        if (rows == nullptr) continue;
        for (const std::size_t r : *rows) {
          Tuple joined;
          for (std::size_t k : lkeys_) joined.values.push_back(l.at(k));
          for (std::size_t i : lrest_) joined.values.push_back(l.at(i));
          for (std::size_t i : rrest_) joined.values.push_back(rhs[r].at(i));
          chain_.ingest(std::move(joined), 0);
        }
      }
    }
    return chain_.end_window();
  }

  void collect_sources(std::vector<OracleNode*>& out) {
    if (node_.kind == StreamNode::Kind::kSource) {
      out.push_back(this);
      return;
    }
    left_->collect_sources(out);
    right_->collect_sources(out);
  }
  void collect_chains(std::vector<OracleChain*>& out) {
    out.push_back(&chain_);
    if (left_) left_->collect_chains(out);
    if (right_) right_->collect_chains(out);
  }

  OracleChain& chain() { return chain_; }

 private:
  const StreamNode& node_;
  OracleChain chain_;
  std::unique_ptr<OracleNode> left_, right_;
  std::vector<std::size_t> lkeys_, rkeys_, lrest_, rrest_;
};

class OracleQuery {
 public:
  explicit OracleQuery(const query::Query& q) : root_(*q.root(), q.state_spec()) {
    root_.collect_sources(sources_);
    root_.collect_chains(chains_);
  }

  OracleChain& source(int s) { return sources_.at(static_cast<std::size_t>(s))->chain(); }
  void ingest_packet(const Tuple& t) {
    for (OracleNode* s : sources_) s->chain().ingest(t, 0);
  }
  std::vector<Tuple> end_window() { return root_.end_window(); }
  void set_filter_entries(const std::string& table, const std::vector<Tuple>& entries) {
    for (OracleNode* s : sources_) s->chain().set_filter_entries(table, entries);
  }
  [[nodiscard]] std::uint64_t ingested() const {
    std::uint64_t n = 0;
    for (const OracleChain* c : chains_) n += c->ingested();
    return n;
  }

 private:
  OracleNode root_;
  std::vector<OracleNode*> sources_;
  std::vector<OracleChain*> chains_;
};

// --- All-SP replay: QueryExecutor against the oracle ---------------------------

// Returns the rows the query output over the trace.
std::uint64_t expect_replay_matches(const query::Query& q,
                                    const std::vector<net::Packet>& trace) {
  ScopedObs obs_on;
  SCOPED_TRACE(q.name());
  stream::QueryExecutor exec(q);
  OracleQuery oracle(q);
  std::uint64_t outputs = 0;
  for (const auto& window : trace::split_windows(trace, q.window())) {
    const std::uint64_t counter_before = stream_counter();
    const std::uint64_t oracle_before = oracle.ingested();
    for (const net::Packet& p : window) {
      const Tuple t = query::materialize_tuple(p);
      exec.ingest_source_tuple(t);
      oracle.ingest_packet(t);
    }
    const std::vector<Tuple> got = exec.end_window();
    const std::vector<Tuple> want = oracle.end_window();
    EXPECT_EQ(got, want);
    EXPECT_EQ(stream_counter() - counter_before, oracle.ingested() - oracle_before);
    outputs += want.size();
  }
  EXPECT_GT(oracle.ingested(), 0u) << "the query ingested nothing";
  return outputs;
}

TEST(StreamColumnClose, EveryCatalogQueryMatchesTheTupleClose) {
  // Low thresholds, so the joins' filters pass rows too, the DNS queries
  // (string-keyed fast_flux among them) emit on the DNS trace, and zorro's
  // join of raw packets with a reduce runs on telnet background flows.
  auto th = scenario().thresholds;
  th.syn_flood = th.incomplete_flows = 0;
  th.dns_tunnel = th.fast_flux = th.dns_reflection = 1;
  th.zorro_probes = th.zorro_keyword = 0;
  std::uint64_t outputs = 0;
  for (const query::Query& q : queries::full_catalog(th, util::seconds(3))) {
    const bool dns = q.name() == "dns_tunnel" || q.name() == "fast_flux" ||
                     q.name() == "dns_reflection";
    outputs += expect_replay_matches(q, dns ? dns_trace() : scenario().trace);
  }
  EXPECT_GT(outputs, 0u);
}

TEST(StreamColumnClose, SketchStateMatchesTheTupleClose) {
  query::StateSpec sketch;
  sketch.kind = query::StateSpec::Kind::kSketch;
  sketch.eps = 0.05;
  sketch.delta = 0.05;
  sketch.capacity = 1u << 14;
  std::uint64_t outputs = 0;
  for (query::Query q : queries::evaluation_queries(scenario().thresholds, util::seconds(3))) {
    q.set_state_spec(sketch);
    outputs += expect_replay_matches(q, scenario().trace);
  }
  EXPECT_GT(outputs, 0u);
}

namespace f = query::fields;
using namespace query::dsl;  // NOLINT(google-build-using-namespace)

// reduce -> map -> reduce: the first reduce's drained rows leave the
// column path at the second reduce and continue as Tuples.
query::Query reduce_map_reduce() {
  query::Query q = query::QueryBuilder::packet_stream()
                       .filter(col(std::string(f::kProto)) == lit(6))
                       .map({{"dIP", col(std::string(f::kDstIp))},
                             {"sIP", col(std::string(f::kSrcIp))},
                             {"pkts", lit(1)}})
                       .reduce({"dIP", "sIP"}, query::ReduceFn::kSum, "pkts")
                       .filter(col("pkts") > lit(1))
                       .map({{"dIP", col("dIP")}, {"heavy", col("pkts") / lit(2)}})
                       .reduce({"dIP"}, query::ReduceFn::kMax, "heavy")
                       .filter(col("heavy") > lit(0))
                       .build("reduce_map_reduce", 41, util::seconds(3));
  EXPECT_EQ(q.validate(), "");
  return q;
}

// A join on dIP of two reduces keyed on (dIP, port): keys repeat on both
// sides, so a key's matches must come in right-row order.
query::Query join_off_the_reduce_key() {
  auto by_dport = query::QueryBuilder::packet_stream()
                      .filter(col(std::string(f::kProto)) == lit(6))
                      .map({{"dIP", col(std::string(f::kDstIp))},
                            {"dPort", col(std::string(f::kDstPort))},
                            {"n", lit(1)}})
                      .reduce({"dIP", "dPort"}, query::ReduceFn::kSum, "n");
  auto by_len = query::QueryBuilder::packet_stream()
                    .filter(col(std::string(f::kProto)) == lit(6))
                    .map({{"dIP", col(std::string(f::kDstIp))},
                          {"len", col(std::string(f::kPktLen))},
                          {"bytes", col(std::string(f::kPktLen))}})
                    .reduce({"dIP", "len"}, query::ReduceFn::kSum, "bytes");
  query::Query q = std::move(by_dport)
                       .join({"dIP"}, std::move(by_len))
                       .filter(col("n") % lit(3) != lit(1))
                       .map({{"dIP", col("dIP")},
                             {"dPort", col("dPort")},
                             {"per", col("bytes") / (col("n") - lit(1))}})
                       .build("join_off_key", 42, util::seconds(3));
  q.set_refinable(false);
  EXPECT_EQ(q.validate(), "");
  return q;
}

TEST(StreamColumnClose, ReduceMapReduceChainMatchesTheTupleClose) {
  EXPECT_GT(expect_replay_matches(reduce_map_reduce(), scenario().trace), 0u);
}

TEST(StreamColumnClose, JoinOffTheReduceKeyMatchesTheTupleClose) {
  EXPECT_GT(expect_replay_matches(join_off_the_reduce_key(), scenario().trace), 0u);
}

// --- the StreamProcessor close against an oracle driver ------------------------

using LevelKey = std::pair<query::QueryId, int>;

// The Fleet's packet -> switch routing.
std::size_t route(const net::Packet& p, std::size_t switches) {
  const std::uint64_t flow = util::hash_combine(
      util::hash_combine(p.src_ip, p.dst_ip),
      (static_cast<std::uint64_t>(p.src_port) << 24) ^
          (static_cast<std::uint64_t>(p.dst_port) << 8) ^ p.proto);
  return static_cast<std::size_t>(flow % switches);
}

// The stream processor's close with oracle executors over its own
// switches: records and the raw mirror switch by switch, then every
// pipeline's polls folded into a Tuple map and ingested at its reduce,
// then levels coarse to fine with winners installed on the next level.
class OracleDriver {
 public:
  OracleDriver(const Plan& plan, std::size_t switches, const runtime::PipelineBuildOptions& build)
      : plan_(plan), routes_(plan) {
    for (std::size_t i = 0; i < switches; ++i) {
      auto sw = std::make_unique<pisa::Switch>(plan.switch_config);
      sw->set_obs_label("column-oracle" + std::to_string(i));
      runtime::PipelineBuild b = runtime::build_pipelines(plan, {}, build);
      EXPECT_EQ(sw->install(std::move(b.pipelines), b.resources), "");
      switches_.push_back(std::move(sw));
    }
    for (const auto& pq : plan.queries) {
      for (const int level : pq.chain) {
        execs_[{pq.base->id(), level}] = std::make_unique<OracleQuery>(pq.exec_queries.at(level));
      }
    }
  }

  struct Window {
    runtime::WindowStats stats;
    std::map<LevelKey, std::uint64_t> tuples_in;
    std::uint64_t stream = 0;  // tuples the oracle executors ingested
  };

  Window close(std::span<const net::Packet> packets) {
    Window out;
    std::uint64_t before = 0;
    for (const auto& [key, exec] : execs_) before += exec->ingested();
    const std::size_t n = switches_.size();
    runtime::WindowStats& ws = out.stats;
    ws.packets = packets.size();
    std::vector<std::vector<Tuple>> tuples(n);
    for (const net::Packet& p : packets) tuples[route(p, n)].push_back(query::materialize_tuple(p));
    const bool raw = routes_.wants_raw_mirror();
    for (std::size_t g = 0; g < n; ++g) {
      pisa::EmitSink sink;
      switches_[g]->process_batch(tuples[g], sink);
      ws.tuples_to_sp += raw ? tuples[g].size() : sink.packets_with_records();
      for (pisa::EmitRecord& rec : sink.records()) {
        if (rec.kind == pisa::EmitRecord::Kind::kKeyReport) continue;
        const int src = routes_.remap_source(rec.qid, rec.level, rec.source_index);
        if (src < 0) continue;
        ++out.tuples_in[{rec.qid, rec.level}];
        ws.overflow_records += rec.kind == pisa::EmitRecord::Kind::kOverflow ? 1 : 0;
        execs_.at({rec.qid, rec.level})->source(src).ingest(std::move(rec.tuple), rec.op_index);
      }
      if (!raw) continue;
      ws.raw_mirror_packets += tuples[g].size();
      for (const auto& pq : plan_.queries) {
        for (const auto& p : pq.pipelines) {
          if (p.partition != 0) continue;
          const int src = routes_.remap_source(p.qid, p.level, p.source_index);
          if (src < 0) continue;
          out.tuples_in[{p.qid, p.level}] += tuples[g].size();
          for (const Tuple& t : tuples[g]) execs_.at({p.qid, p.level})->source(src).ingest(t, 0);
        }
      }
    }
    fold_polls(out);
    for (const auto& pq : plan_.queries) close_query(pq, ws);
    for (auto& sw : switches_) sw->reset_all_registers();
    for (const auto& [key, exec] : execs_) out.stream += exec->ingested();
    out.stream -= before;
    return out;
  }

 private:
  void fold_polls(Window& out) {
    const auto& program = switches_.front()->pipelines();
    for (std::size_t p = 0; p < program.size(); ++p) {
      const pisa::CompiledSwitchQuery& pipe = *program[p];
      if (!pipe.has_stateful_tail()) continue;
      util::FlatMap<std::uint64_t> merged;
      std::uint64_t logical = 0;
      for (auto& sw : switches_) {
        pisa::PolledBlock block;
        sw->pipelines()[p]->poll_block(block);
        for (std::size_t i = 0; i < block.size(); ++i) {
          Tuple key = block.key_tuple(i);
          const std::uint64_t hash = key.hash();
          const auto [slot, inserted] = merged.try_emplace(std::move(key), hash, block.value(i));
          if (!inserted) *slot = pisa::apply_reduce(pipe.tail_reduce_fn(), *slot, block.value(i));
          ++logical;
        }
      }
      const auto& o = pipe.options();
      const int src = routes_.remap_source(o.qid, o.level, o.source_index);
      if (logical == 0 || src < 0) continue;
      out.tuples_in[{o.qid, o.level}] += logical;
      for (const auto& e : merged.entries()) {
        execs_.at({o.qid, o.level})
            ->source(src)
            .ingest(pipe.shape_polled(e.key, e.value), pipe.poll_entry_op());
      }
    }
  }

  void close_query(const planner::PlannedQuery& pq, runtime::WindowStats& ws) {
    runtime::QueryWinners installed{pq.base->id(), {}};
    for (std::size_t li = 0; li < pq.chain.size(); ++li) {
      const int level = pq.chain[li];
      std::vector<Tuple> outputs = execs_.at({pq.base->id(), level})->end_window();
      if (li + 1 == pq.chain.size()) {
        ws.results.push_back({pq.base->id(), pq.base->name(), std::move(outputs)});
        break;
      }
      const auto& schema = pq.exec_queries.at(level).root()->output_schema();
      const auto idx = schema.index_of(pq.keys.empty() ? "" : pq.keys.front().key_column);
      std::vector<Tuple> winners;
      if (idx) {
        util::FlatSet dedup;
        for (const Tuple& t : outputs) {
          Tuple key{{t.at(*idx)}};
          if (dedup.insert(key)) winners.push_back(std::move(key));
        }
      }
      for (const auto& p : pq.pipelines) {
        if (p.level != pq.chain[li + 1] || p.filter_table.empty()) continue;
        execs_.at({pq.base->id(), pq.chain[li + 1]})->set_filter_entries(p.filter_table, winners);
        for (auto& sw : switches_) sw->update_filter_entries(p.filter_table, winners);
      }
      installed.keys.insert(installed.keys.end(), winners.begin(), winners.end());
    }
    ws.winners.per_query.push_back(std::move(installed));
  }

  const Plan& plan_;
  runtime::StreamProcessor routes_;  // route tables only: remap_source, raw mirror
  std::vector<std::unique_ptr<pisa::Switch>> switches_;
  std::map<LevelKey, std::unique_ptr<OracleQuery>> execs_;
};

// The SP's per-(query, level) tuples_in counters of a plan.
std::map<LevelKey, std::uint64_t> tuples_in(const Plan& plan) {
  std::map<LevelKey, std::uint64_t> out;
  auto& reg = obs::Registry::global();
  for (const auto& pq : plan.queries) {
    for (const int level : pq.chain) {
      const std::pair<std::string_view, std::string> labels[] = {
          {"qid", std::to_string(pq.base->id())}, {"level", std::to_string(level)}};
      out[{pq.base->id(), level}] =
          reg.counter(obs::labeled("sonata_sp_tuples_in_total", labels)).value();
    }
  }
  return out;
}

// A Fleet's windows against the oracle driver's. Registers shrink
// `shrink`-fold so keys overflow: their records reach the SP's reduce
// before the polls do, and the polls then fold into a reduce that holds
// keys.
void expect_fleet_matches(const Plan& plan, const std::vector<net::Packet>& trace,
                          std::size_t shrink) {
  ScopedObs obs_on;
  constexpr std::size_t kSwitches = 3;
  fault::FaultSpec faults;
  faults.register_shrink = shrink;
  runtime::PipelineBuildOptions build;
  build.register_shrink = shrink;
  runtime::Fleet fleet(plan, kSwitches, 2, 256, faults);
  OracleDriver oracle(plan, kSwitches, build);
  std::uint64_t overflow = 0;
  std::size_t window_index = 0;
  for (const auto& window : trace::split_windows(trace, plan.window)) {
    SCOPED_TRACE("window " + std::to_string(window_index++));
    const auto in_before = tuples_in(plan);
    const std::uint64_t stream_before = stream_counter();
    for (const net::Packet& p : window) fleet.ingest(p);
    const runtime::WindowStats have = fleet.close_window();
    const auto in_after = tuples_in(plan);
    const std::uint64_t stream_have = stream_counter() - stream_before;
    const OracleDriver::Window want = oracle.close(window);
    EXPECT_EQ(have.tuples_to_sp, want.stats.tuples_to_sp);
    EXPECT_EQ(have.overflow_records, want.stats.overflow_records);
    ASSERT_EQ(have.results.size(), want.stats.results.size());
    for (std::size_t r = 0; r < have.results.size(); ++r) {
      EXPECT_EQ(have.results[r].qid, want.stats.results[r].qid);
      EXPECT_EQ(have.results[r].outputs, want.stats.results[r].outputs)
          << "query " << want.stats.results[r].name;
    }
    EXPECT_TRUE(have.winners == want.stats.winners);
    for (const auto& [key, after] : in_after) {
      const auto it = want.tuples_in.find(key);
      EXPECT_EQ(after - in_before.at(key), it == want.tuples_in.end() ? 0 : it->second)
          << "tuples_in of query " << key.first << " level " << key.second;
    }
    EXPECT_EQ(stream_have, want.stream);
    overflow += have.overflow_records;
  }
  if (shrink > 1) {
    EXPECT_GT(overflow, 0u) << "no key overflowed its registers";
  }
}

TEST(StreamColumnClose, FleetCloseMatchesTheTupleCloseOnTheCatalog) {
  std::vector<query::Query> qs = queries::evaluation_queries(scenario().thresholds,
                                                              util::seconds(3));
  qs.push_back(reduce_map_reduce());
  qs.push_back(join_off_the_reduce_key());
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  expect_fleet_matches(plan, scenario().trace, 4);
}

TEST(StreamColumnClose, FleetCloseMatchesTheTupleCloseOnStringKeys) {
  auto th = scenario().thresholds;
  th.dns_tunnel = th.fast_flux = th.dns_reflection = 1;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_dns_tunnel(th, util::seconds(3)));
  qs.push_back(queries::make_fast_flux(th, util::seconds(3)));
  qs.push_back(queries::make_dns_reflection(th, util::seconds(3)));
  qs.push_back(queries::make_zorro(th, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, dns_trace());
  expect_fleet_matches(plan, dns_trace(), 4);
}

TEST(StreamColumnClose, FleetCloseMatchesTheTupleCloseUnderSketchState) {
  query::StateSpec sketch;
  sketch.kind = query::StateSpec::Kind::kSketch;
  sketch.eps = 0.05;
  sketch.delta = 0.05;
  sketch.capacity = 1u << 14;
  auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  for (auto& q : qs) q.set_state_spec(sketch);
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  expect_fleet_matches(plan, scenario().trace, 1);
}

}  // namespace
}  // namespace sonata
