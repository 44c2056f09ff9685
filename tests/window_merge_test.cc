// The window merge (runtime/window_merge.h) against the close path it
// replaced.
//
// The oracle is that former path, kept only here: per pipeline, the
// contributing shards' register entries fold key-wise into a
// FlatMap<Tuple> (each key re-hashed with Tuple::hash), every merged key
// is shaped into a reduce-input tuple with shape_polled(), and the tuples
// enter the executor through ingest_batch() at the reduce. An oracle
// driver runs that path over its own switches, routed and merged in the
// Fleet's order, and every driver — Fleet at 1, 2 and 4 shards with 0 and
// 2 workers, Runtime, and the Collector over shm — must match it window
// for window: results and their order, winners, tuple accounting, the
// SP's per-(query, level) tuples_in (which counts pre-merge entries) and
// the stream executors' tuple counter (which counts merged ones).
#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/transport/transport.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "runtime/distributed.h"
#include "runtime/fleet.h"
#include "runtime/plan_install.h"
#include "runtime/runtime.h"
#include "runtime/stream_processor.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/time.h"

namespace sonata::runtime {
namespace {

using planner::Plan;
using planner::PlanMode;
using planner::Planner;
using planner::PlannerConfig;
using query::Tuple;

using LevelKey = std::pair<query::QueryId, int>;

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario();
  return sc;
}

// Background traffic (with its DNS share) plus a DNS tunnel: many distinct
// query names, so string-keyed registers fill up.
const std::vector<net::Packet>& dns_trace() {
  static const std::vector<net::Packet> trace = [] {
    trace::BackgroundConfig bg;
    bg.duration_sec = 12.0;
    bg.flows_per_sec = 400.0;
    trace::TraceBuilder builder(7);
    builder.background(bg);
    trace::DnsTunnelConfig tunnel;
    tunnel.client = util::ipv4(10, 9, 8, 7);
    tunnel.resolver = util::ipv4(10, 0, 0, 53);
    tunnel.start_sec = 1.0;
    tunnel.duration_sec = 10.0;
    builder.add(tunnel);
    return builder.build();
  }();
  return trace;
}

std::vector<std::span<const net::Packet>> windows_of(const std::vector<net::Packet>& trace,
                                                     util::Nanos window) {
  return trace::split_windows(trace, window);
}

// Turns observability on for a test (the tuple counters are published only
// then) and back off after it.
class ScopedObs {
 public:
  ScopedObs() { obs::set_enabled(true); }
  ~ScopedObs() { obs::set_enabled(false); }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
};

// The SP tuple counters of a plan, read before and after a window.
class Counters {
 public:
  explicit Counters(const Plan& plan) {
    auto& reg = obs::Registry::global();
    for (const auto& pq : plan.queries) {
      for (const int level : pq.chain) {
        const std::pair<std::string_view, std::string> labels[] = {
            {"qid", std::to_string(pq.base->id())}, {"level", std::to_string(level)}};
        in_.emplace_back(LevelKey{pq.base->id(), level},
                         &reg.counter(obs::labeled("sonata_sp_tuples_in_total", labels)));
      }
    }
    stream_ = &reg.counter("sonata_stream_tuples_total");
    last_ = read();
  }

  struct Snapshot {
    std::map<LevelKey, std::uint64_t> tuples_in;
    std::uint64_t stream = 0;
  };

  // Counts since the previous call.
  Snapshot delta() {
    const Snapshot now = read();
    Snapshot d;
    for (const auto& [key, v] : now.tuples_in) d.tuples_in[key] = v - last_.tuples_in[key];
    d.stream = now.stream - last_.stream;
    last_ = now;
    return d;
  }

 private:
  [[nodiscard]] Snapshot read() const {
    Snapshot s;
    for (const auto& [key, c] : in_) s.tuples_in[key] = c->value();
    s.stream = stream_->value();
    return s;
  }

  std::vector<std::pair<LevelKey, obs::Counter*>> in_;
  obs::Counter* stream_ = nullptr;
  Snapshot last_;
};

struct Observed {
  WindowStats stats;
  Counters::Snapshot counts;
};

// The Fleet's packet -> switch routing.
std::size_t route(const net::Packet& p, std::size_t switches) {
  const std::uint64_t flow = util::hash_combine(
      util::hash_combine(p.src_ip, p.dst_ip),
      (static_cast<std::uint64_t>(p.src_port) << 24) ^
          (static_cast<std::uint64_t>(p.dst_port) << 8) ^ p.proto);
  return static_cast<std::size_t>(flow % switches);
}

// The former close path over its own switches. Per window it routes each
// packet like the Fleet, skips the switches `mask` leaves out (a
// quarantined shard loses its window), merges records and raw mirror in
// ascending switch order, then folds the polled registers the old way.
class OracleDriver {
 public:
  OracleDriver(const Plan& plan, std::size_t switches, const PipelineBuildOptions& build)
      : sp_(plan) {
    for (std::size_t i = 0; i < switches; ++i) {
      auto sw = std::make_unique<pisa::Switch>(plan.switch_config);
      sw->set_obs_label("oracle" + std::to_string(i));
      PipelineBuild b = build_pipelines(plan, {}, build);
      EXPECT_EQ(sw->install(std::move(b.pipelines), b.resources), "");
      switches_.push_back(std::move(sw));
    }
  }

  // One window. `polled` receives the pre-merge poll count per (query,
  // level): what the merged path adds to tuples_in besides the records.
  WindowStats close(std::span<const net::Packet> window, std::uint64_t mask,
                    std::map<LevelKey, std::uint64_t>& polled) {
    const std::size_t n = switches_.size();
    WindowStats ws;
    ws.packets = window.size();
    std::vector<std::vector<Tuple>> tuples(n);
    for (const net::Packet& p : window) {
      const std::size_t g = route(p, n);
      if ((mask >> g & 1) != 0) tuples[g].push_back(query::materialize_tuple(p));
    }
    const bool raw = sp_.wants_raw_mirror();
    std::vector<pisa::Switch*> healthy;
    for (std::size_t g = 0; g < n; ++g) {
      if ((mask >> g & 1) == 0) continue;
      healthy.push_back(switches_[g].get());
      pisa::EmitSink sink;
      switches_[g]->process_batch(tuples[g], sink);
      ws.tuples_to_sp += raw ? tuples[g].size() : sink.packets_with_records();
      for (pisa::EmitRecord& rec : sink.records()) {
        const bool overflow = rec.kind == pisa::EmitRecord::Kind::kOverflow;
        if (sp_.deliver(std::move(rec)) && overflow) ++ws.overflow_records;
      }
      if (raw) {
        ws.raw_mirror_packets += tuples[g].size();
        sp_.deliver_raw_batch(tuples[g]);
      }
    }
    if (!healthy.empty()) fold_polls(healthy, polled);
    sp_.close_levels(ws, healthy);
    for (auto& sw : switches_) sw->reset_all_registers();
    ws.contribution_mask = mask;
    return ws;
  }

 private:
  void fold_polls(const std::vector<pisa::Switch*>& healthy,
                  std::map<LevelKey, std::uint64_t>& polled) {
    const auto& program = healthy.front()->pipelines();
    for (std::size_t p = 0; p < program.size(); ++p) {
      const pisa::CompiledSwitchQuery& pipe = *program[p];
      if (!pipe.has_stateful_tail()) continue;
      util::FlatMap<std::uint64_t> merged;
      std::uint64_t logical = 0;
      for (pisa::Switch* sw : healthy) {
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
      if (logical == 0) continue;
      std::vector<Tuple> aggregates;
      for (const auto& e : merged.entries()) aggregates.push_back(pipe.shape_polled(e.key, e.value));
      const auto& o = pipe.options();
      const int src = sp_.remap_source(o.qid, o.level, o.source_index);
      if (src < 0) continue;
      polled[{o.qid, o.level}] += logical;
      sp_.executor(o.qid, o.level).ingest_batch(src, aggregates, pipe.poll_entry_op());
    }
  }

  StreamProcessor sp_;
  std::vector<std::unique_ptr<pisa::Switch>> switches_;
};

// Run the oracle over `windows` with the masks `got` reported and compare
// every window.
void expect_matches_oracle(const Plan& plan, std::size_t switches,
                           const PipelineBuildOptions& build,
                           const std::vector<std::span<const net::Packet>>& windows,
                           const std::vector<Observed>& got, const std::string& label) {
  ASSERT_EQ(got.size(), windows.size()) << label;
  OracleDriver oracle(plan, switches, build);
  Counters counters(plan);
  std::uint64_t polled_total = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    SCOPED_TRACE(label + " window " + std::to_string(w));
    std::map<LevelKey, std::uint64_t> polled;
    const WindowStats want = oracle.close(windows[w], got[w].stats.contribution_mask, polled);
    const Counters::Snapshot counts = counters.delta();
    const WindowStats& have = got[w].stats;
    EXPECT_EQ(have.packets, want.packets);
    EXPECT_EQ(have.tuples_to_sp, want.tuples_to_sp);
    EXPECT_EQ(have.raw_mirror_packets, want.raw_mirror_packets);
    EXPECT_EQ(have.overflow_records, want.overflow_records);
    ASSERT_EQ(have.results.size(), want.results.size());
    for (std::size_t r = 0; r < want.results.size(); ++r) {
      EXPECT_EQ(have.results[r].qid, want.results[r].qid);
      EXPECT_EQ(have.results[r].outputs, want.results[r].outputs) << "query "
                                                                  << want.results[r].name;
    }
    EXPECT_TRUE(have.winners == want.winners);
    for (const auto& [key, records] : counts.tuples_in) {
      const auto it = polled.find(key);
      const std::uint64_t polls = it == polled.end() ? 0 : it->second;
      polled_total += polls;
      EXPECT_EQ(got[w].counts.tuples_in.at(key), records + polls)
          << "tuples_in of query " << key.first << " level " << key.second;
    }
    EXPECT_EQ(got[w].counts.stream, counts.stream);
  }
  EXPECT_GT(polled_total, 0u) << label << ": no register was polled";
}

std::vector<Observed> run_fleet(const Plan& plan, std::size_t switches, std::size_t threads,
                                const fault::FaultSpec& faults,
                                const std::vector<std::span<const net::Packet>>& windows) {
  Fleet fleet(plan, switches, threads, 256, faults);
  Counters counters(plan);
  std::vector<Observed> out;
  for (const auto& window : windows) {
    for (const net::Packet& p : window) fleet.ingest(p);
    WindowStats ws = fleet.close_window();
    out.push_back({std::move(ws), counters.delta()});
  }
  return out;
}

std::vector<Observed> run_runtime(const Plan& plan, const fault::FaultSpec& faults,
                                  const std::vector<std::span<const net::Packet>>& windows) {
  Runtime rt(plan, 256, faults);
  Counters counters(plan);
  std::vector<Observed> out;
  for (const auto& window : windows) {
    for (const net::Packet& p : window) rt.ingest(p);
    WindowStats ws = rt.close_window();
    ws.contribution_mask = 1;
    out.push_back({std::move(ws), counters.delta()});
  }
  return out;
}

// Every Fleet shape and Runtime against the oracle on one plan. The
// registers are shrunk fourfold so keys overflow on some switches and are
// polled on others: the merged keys must then meet the overflow records'
// keys in the reduce under the very same hash.
void check_drivers(const Plan& plan, const std::vector<net::Packet>& trace,
                   std::size_t shrink, bool expect_overflow) {
  ScopedObs obs_on;
  const auto windows = windows_of(trace, plan.window);
  ASSERT_GE(windows.size(), 2u);
  fault::FaultSpec faults;
  faults.register_shrink = shrink;
  PipelineBuildOptions build;
  build.register_shrink = shrink;
  std::uint64_t overflow = 0;
  for (const std::size_t switches : {1u, 2u, 4u}) {
    for (const std::size_t threads : {0u, 2u}) {
      const auto got = run_fleet(plan, switches, threads, faults, windows);
      for (const auto& o : got) overflow += o.stats.overflow_records;
      expect_matches_oracle(plan, switches, build, windows, got,
                            "fleet " + std::to_string(switches) + "x" + std::to_string(threads));
    }
  }
  expect_matches_oracle(plan, 1, build, windows, run_runtime(plan, faults, windows), "runtime");
  if (expect_overflow) {
    EXPECT_GT(overflow, 0u) << "no key overflowed its registers";
  }
}

// At least one pipeline whose stateful tail keys on a column of `kind`,
// with `hashpipe` registers or exact ones.
bool has_tail(const Plan& plan, query::ValueKind kind, bool hashpipe) {
  for (const auto& pq : plan.queries) {
    for (const auto& p : pq.pipelines) {
      if (p.partition == 0) continue;
      const pisa::CompiledSwitchQuery pipe(*p.node, {.qid = p.qid,
                                                      .source_index = p.source_index,
                                                      .level = p.level,
                                                      .partition = p.partition,
                                                      .sizing = p.sizing});
      if (!pipe.has_stateful_tail()) continue;
      bool sketch = false;
      for (const auto& s : pipe.stateful_op_stats()) sketch |= s.sketch;
      for (const query::ValueKind k : pipe.tail_key_kinds()) {
        if (k == kind && sketch == hashpipe) return true;
      }
    }
  }
  return false;
}

TEST(WindowMerge, ExactNumericKeysMatchTheFormerPath) {
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  ASSERT_TRUE(has_tail(plan, query::ValueKind::kUint, false));
  check_drivers(plan, scenario().trace, 4, true);
}

TEST(WindowMerge, SketchStateAndHashPipeRegistersMatchTheFormerPath) {
  // HashPipe stages can hold one key in two stages: the fold merges the
  // pieces before the SP's sketch sees them, as the oracle does.
  auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  query::StateSpec sketch;
  sketch.kind = query::StateSpec::Kind::kSketch;
  sketch.eps = 0.01;
  sketch.delta = 0.01;
  for (auto& q : qs) q.set_state_spec(sketch);
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  ASSERT_TRUE(has_tail(plan, query::ValueKind::kUint, true));
  check_drivers(plan, scenario().trace, 1, false);
}

TEST(WindowMerge, DnsStringKeysMatchTheFormerPath) {
  queries::Thresholds th;
  th.fast_flux = 20;
  th.dns_tunnel = 50;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_fast_flux(th, util::seconds(3)));
  qs.push_back(queries::make_dns_tunnel(th, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, dns_trace());
  ASSERT_TRUE(has_tail(plan, query::ValueKind::kString, false));
  check_drivers(plan, dns_trace(), 4, true);
}

TEST(WindowMerge, QuarantinedShardIsLeftOutOfTheFold) {
  ScopedObs obs_on;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  qs.push_back(queries::make_ddos(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  const auto windows = windows_of(scenario().trace, plan.window);
  ASSERT_GE(windows.size(), 3u);

  fault::FaultSpec faults;
  faults.stall_switch = 1;
  faults.stall_from_window = 1;
  faults.stall_windows = 1;
  faults.watchdog_ms = 1000;  // generous: sanitizer builds drain slowly
  const auto got = run_fleet(plan, 2, 2, faults, windows);
  ASSERT_EQ(got.size(), windows.size());
  EXPECT_EQ(got[0].stats.contribution_mask, 0b11u);
  EXPECT_EQ(got[1].stats.contribution_mask, 0b01u);
  EXPECT_EQ(got[2].stats.contribution_mask, 0b11u);
  expect_matches_oracle(plan, 2, {}, windows, got, "quarantine");
}

TEST(WindowMerge, CollectorOverShmMatchesTheFormerPath) {
  ScopedObs obs_on;
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.window = util::seconds(3);
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  const auto windows = windows_of(scenario().trace, plan.window);

  constexpr std::size_t kSwitches = 4;
  constexpr std::uint16_t kNodes = 2;
  const std::string prefix = "/tmp/sonata_wm." + std::to_string(::getpid());
  const auto spec = net::transport::parse_endpoint("shm:" + prefix);
  ASSERT_TRUE(spec.has_value());
  DistributedConfig dcfg;
  dcfg.switches = kSwitches;
  dcfg.nodes = kNodes;
  auto ep = net::transport::make_collector_endpoint(*spec, kNodes);
  ASSERT_TRUE(ep.has_value()) << ep.error();
  Collector collector(plan, dcfg, std::move(*ep));
  ASSERT_EQ(collector.listen(), "");

  Counters counters(plan);
  std::vector<Observed> got;
  std::string collector_err;
  std::thread collector_thread([&] {
    collector_err = collector.run([&](const WindowStats& ws) {
      got.push_back({ws, counters.delta()});
    });
  });
  std::string node_err[kNodes];
  std::vector<std::thread> node_threads;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    node_threads.emplace_back([&, n] {
      DistributedConfig ncfg = dcfg;
      ncfg.node_index = n;
      auto transport = net::transport::make_switch_transport(*spec, n);
      if (!transport) {
        node_err[n] = transport.error();
        return;
      }
      SwitchNode node(plan, ncfg, std::move(*transport));
      node_err[n] = node.run(scenario().trace);
    });
  }
  for (auto& t : node_threads) t.join();
  collector_thread.join();
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    ::unlink((prefix + ".n" + std::to_string(n) + ".up").c_str());
    ::unlink((prefix + ".n" + std::to_string(n) + ".down").c_str());
  }
  ASSERT_EQ(collector_err, "");
  for (std::uint16_t n = 0; n < kNodes; ++n) ASSERT_EQ(node_err[n], "") << "node " << n;
  expect_matches_oracle(plan, kSwitches, {}, windows, got, "collector");
}

}  // namespace
}  // namespace sonata::runtime
