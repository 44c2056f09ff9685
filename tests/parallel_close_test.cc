// The shared window close (StreamProcessor::close_window) run in parallel
// against the same close run inline. One task per query delivers that
// query's records shard by shard, folds its polls and ends its levels; a
// serial epilogue installs winners and fills the window in plan order. So
// every window must come out the same for any number of threads:
//   * Fleet, 4 shards, at 1, 2 and 4 workers against 0 workers, for the
//     eval-8 Sonata plan, an All-SP plan (raw mirror), sketch state with
//     HashPipe registers, a faulty report wire and a watchdog-quarantined
//     shard;
//   * the StreamProcessor alone, its tasks inline and on 1, 3 and 8
//     threads, against records delivered one by one in (shard, arrival)
//     order before the close; this also compares the winner sink's
//     install sequence;
//   * the single-switch Runtime at batch 1, 7 and 256 against one switch
//     whose records reach the StreamProcessor batch by batch as emitted,
//     closed by poll_switch, close_levels and a register reset;
//   * the Collector over shm, its close on its own task pool, against the
//     inline Fleet for the Sonata plan, sketch state and duplicated or
//     reordered frames.
// Compared per window: the whole WindowStats (results in order, winners,
// overflow_records, tuples_to_sp, ...), the SP's per-(qid, level)
// tuples_in, the emitter's per-query tallies and total, the switches'
// filter-update counts and the window's journal events.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/transport/transport.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/distributed.h"
#include "runtime/fleet.h"
#include "runtime/plan_install.h"
#include "runtime/runtime.h"
#include "runtime/stream_processor.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/hash.h"

namespace sonata::runtime {
namespace {

using planner::Plan;
using planner::PlanMode;
using planner::Planner;
using planner::PlannerConfig;
using query::Tuple;

using LevelKey = std::pair<query::QueryId, int>;

constexpr std::size_t kShards = 4;

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario();
  return sc;
}

const std::vector<std::span<const net::Packet>>& windows() {
  static const auto w = trace::split_windows(scenario().trace, util::seconds(3));
  return w;
}

// The plan's queries must outlive it: each plan keeps its own set. With
// `busy` thresholds most keys pass, so each query outputs many tuples in
// an order that depends on the order its records arrived in.
Plan make_plan(PlanMode mode, bool sketch, bool busy = false) {
  static std::deque<std::vector<query::Query>> keep;
  queries::Thresholds th = scenario().thresholds;
  if (busy) {
    th.newly_opened = th.ssh_brute = th.superspreader = th.port_scan = 2;
    th.ddos = th.syn_flood = th.incomplete_flows = 2;
  }
  auto& qs = keep.emplace_back(queries::evaluation_queries(th, util::seconds(3)));
  if (sketch) {
    query::StateSpec spec;
    spec.kind = query::StateSpec::Kind::kSketch;
    spec.eps = 0.01;
    spec.delta = 0.01;
    for (auto& q : qs) q.set_state_spec(spec);
  }
  PlannerConfig cfg;
  cfg.mode = mode;
  cfg.window = util::seconds(3);
  return Planner(cfg).plan(qs, scenario().trace);
}

// Metrics and the journal on for one test (tuples_in and the sketch-bound
// events are published only then).
class ScopedObs {
 public:
  ScopedObs() {
    obs::set_enabled(true);
    obs::Journal::global().clear();
    obs::Journal::global().set_enabled(true);
  }
  ~ScopedObs() {
    obs::Journal::global().set_enabled(false);
    obs::set_enabled(false);
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
};

// The SP's tuples_in counters of a plan, as deltas between reads.
class TuplesIn {
 public:
  explicit TuplesIn(const Plan& plan) {
    for (const auto& pq : plan.queries) {
      for (const int level : pq.chain) {
        const std::pair<std::string_view, std::string> labels[] = {
            {"qid", std::to_string(pq.base->id())}, {"level", std::to_string(level)}};
        counters_.emplace_back(LevelKey{pq.base->id(), level},
                               &obs::Registry::global().counter(
                                   obs::labeled("sonata_sp_tuples_in_total", labels)));
        last_.push_back(counters_.back().second->value());
      }
    }
  }
  std::map<LevelKey, std::uint64_t> delta() {
    std::map<LevelKey, std::uint64_t> d;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const std::uint64_t now = counters_[i].second->value();
      d[counters_[i].first] += now - last_[i];
      last_[i] = now;
    }
    return d;
  }

 private:
  std::vector<std::pair<LevelKey, obs::Counter*>> counters_;
  std::vector<std::uint64_t> last_;
};

// A journal event without its clock and sequence stamps.
using Event = std::tuple<obs::EventType, std::uint64_t, std::uint64_t, std::uint32_t,
                         std::int64_t, std::int64_t, std::int64_t, std::string>;

// Events emitted since the last call. Workers journal their quarantine
// resyncs whenever they get to them, so those are left out.
std::vector<Event> new_events(std::uint64_t& seen) {
  std::vector<Event> out;
  for (const obs::JournalEvent& e : obs::Journal::global().tail(obs::Journal::capacity())) {
    if (e.seq <= seen) continue;
    seen = e.seq;
    if (e.type == obs::EventType::kShardResynced) continue;
    out.emplace_back(e.type, e.window_id, e.query_id, e.shard, e.a, e.b, e.c,
                     std::string(e.detail));
  }
  return out;
}

struct Observed {
  WindowStats stats;
  std::map<LevelKey, std::uint64_t> tuples_in;
  std::vector<std::pair<query::QueryId, Emitter::PerQuery>> emitter;
  std::uint64_t emitter_total = 0;
  std::vector<std::uint64_t> filter_updates;  // per switch, cumulative
  std::vector<Event> events;
  std::vector<std::pair<std::string, std::vector<Tuple>>> installs;  // winner sink
};

void expect_same(const std::vector<Observed>& want, const std::vector<Observed>& got,
                 const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t w = 0; w < want.size(); ++w) {
    SCOPED_TRACE(label + " window " + std::to_string(w));
    const WindowStats& a = want[w].stats;
    const WindowStats& b = got[w].stats;
    EXPECT_EQ(a.window_index, b.window_index);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.tuples_to_sp, b.tuples_to_sp);
    EXPECT_EQ(a.raw_mirror_packets, b.raw_mirror_packets);
    EXPECT_EQ(a.overflow_records, b.overflow_records);
    EXPECT_EQ(a.control_update_millis, b.control_update_millis);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.contribution_mask, b.contribution_mask);
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.late_packets, b.late_packets);
    EXPECT_EQ(a.shed_packets, b.shed_packets);
    EXPECT_EQ(a.plan_swapped, b.plan_swapped);
    EXPECT_EQ(a.plan_version, b.plan_version);
    EXPECT_TRUE(a.faults == b.faults);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t r = 0; r < a.results.size(); ++r) {
      EXPECT_EQ(a.results[r].qid, b.results[r].qid);
      EXPECT_EQ(a.results[r].name, b.results[r].name);
      EXPECT_EQ(a.results[r].outputs, b.results[r].outputs) << a.results[r].name;
    }
    EXPECT_TRUE(a.winners == b.winners);
    EXPECT_EQ(want[w].tuples_in, got[w].tuples_in);
    ASSERT_EQ(want[w].emitter.size(), got[w].emitter.size());
    for (std::size_t q = 0; q < want[w].emitter.size(); ++q) {
      EXPECT_EQ(want[w].emitter[q].first, got[w].emitter[q].first);
      EXPECT_EQ(want[w].emitter[q].second.tuples, got[w].emitter[q].second.tuples);
      EXPECT_EQ(want[w].emitter[q].second.overflows, got[w].emitter[q].second.overflows);
    }
    EXPECT_EQ(want[w].emitter_total, got[w].emitter_total);
    EXPECT_EQ(want[w].filter_updates, got[w].filter_updates);
    EXPECT_EQ(want[w].events, got[w].events);
    EXPECT_EQ(want[w].installs, got[w].installs);
  }
}

std::vector<Observed> observe(TelemetryEngine& engine) {
  TuplesIn tuples_in(engine.plan());
  std::uint64_t seen = obs::Journal::global().emitted();
  std::vector<Observed> out;
  for (const auto& window : windows()) {
    for (const net::Packet& p : window) engine.ingest(p);
    Observed o;
    o.stats = engine.close_window();
    o.tuples_in = tuples_in.delta();
    o.emitter = engine.emitter().per_query();
    o.emitter_total = engine.emitter().total_tuples();
    for (std::size_t i = 0; i < engine.data_plane_count(); ++i) {
      o.filter_updates.push_back(engine.data_plane(i).stats().filter_entry_updates);
    }
    o.events = new_events(seen);
    out.push_back(std::move(o));
  }
  return out;
}

std::vector<Observed> run_fleet(const Plan& plan, std::size_t workers,
                                const fault::FaultSpec& faults) {
  Fleet fleet(plan, kShards, workers, 256, faults);
  return observe(fleet);
}

// Fleet at 1, 2 and 4 workers against the inline Fleet; returns the
// inline Fleet's windows.
std::vector<Observed> check_fleet(const Plan& plan, const fault::FaultSpec& faults,
                                  const std::string& label) {
  const auto want = run_fleet(plan, 0, faults);
  std::uint64_t tuples = 0;
  for (const auto& o : want) tuples += o.stats.tuples_to_sp;
  EXPECT_GT(tuples, 0u) << label;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    expect_same(want, run_fleet(plan, workers, faults),
                label + " " + std::to_string(workers) + " workers");
  }
  return want;
}

std::size_t count_events(const std::vector<Observed>& windows, obs::EventType type) {
  std::size_t n = 0;
  for (const auto& o : windows) {
    for (const Event& e : o.events) n += std::get<0>(e) == type ? 1 : 0;
  }
  return n;
}

TEST(ParallelClose, SonataPlanMatchesInlineClose) {
  ScopedObs obs_on;
  const auto want = check_fleet(make_plan(PlanMode::kSonata, false), {}, "sonata");
  std::size_t winners = 0;
  for (const auto& o : want) {
    for (const auto& w : o.stats.winners.per_query) winners += w.keys.size();
  }
  EXPECT_GT(winners, 0u) << "the refined plan installed no winners";
}

TEST(ParallelClose, AllSpRawMirrorMatchesInlineClose) {
  ScopedObs obs_on;
  const Plan plan = make_plan(PlanMode::kAllSP, false);
  ASSERT_TRUE(StreamProcessor::plan_wants_raw_mirror(plan));
  check_fleet(plan, {}, "all-sp");
}

TEST(ParallelClose, SketchStateMatchesInlineClose) {
  // Sketched reduces publish their error bounds as journal events from
  // the close: the epilogue must emit them in plan order.
  ScopedObs obs_on;
  const auto want = check_fleet(make_plan(PlanMode::kMaxDP, true), {}, "sketch");
  EXPECT_GT(count_events(want, obs::EventType::kSketchBoundReport), 0u);
}

TEST(ParallelClose, FaultyWireMatchesInlineClose) {
  fault::FaultSpec faults;
  faults.seed = 7;
  faults.corrupt_rate = 0.02;
  faults.truncate_rate = 0.01;
  faults.drop_rate = 0.02;
  faults.dup_rate = 0.02;
  faults.reorder_rate = 0.02;
  ScopedObs obs_on;
  const auto want = check_fleet(make_plan(PlanMode::kSonata, false), faults, "wire");
  std::uint64_t corrupted = 0;
  for (const auto& o : want) corrupted += o.stats.faults.corrupted_delivered;
  EXPECT_GT(corrupted, 0u) << "no corrupted record reached the stream processor";
}

TEST(ParallelClose, QuarantinedShardMatchesInlineClose) {
  // A stall needs worker threads, so the 1-worker Fleet is the reference.
  fault::FaultSpec faults;
  faults.stall_switch = 1;
  faults.stall_from_window = 1;
  faults.stall_windows = 1;
  faults.watchdog_ms = 1000;  // generous: sanitizer builds drain slowly
  ScopedObs obs_on;
  const Plan plan = make_plan(PlanMode::kSonata, false);
  const auto want = run_fleet(plan, 1, faults);
  ASSERT_GE(want.size(), 2u);
  EXPECT_TRUE(want[1].stats.partial);
  EXPECT_EQ(count_events(want, obs::EventType::kShardQuarantined), 1u);
  for (const std::size_t workers : {2u, 4u}) {
    expect_same(want, run_fleet(plan, workers, faults),
                "quarantine " + std::to_string(workers) + " workers");
  }
}

// Runs close tasks on `threads` fresh threads that claim from one counter.
util::TaskRunner threaded_runner(std::size_t threads) {
  return [threads](std::size_t count, const util::Task& task) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t slot = 0; slot < threads; ++slot) {
      pool.emplace_back([&, slot] {
        for (std::size_t i; (i = next.fetch_add(1)) < count;) task(i, slot);
      });
    }
    for (auto& t : pool) t.join();
  };
}

// The close alone: `shards` switches routed like the Fleet's feed one
// StreamProcessor, whose winner sink records every install. kSerial is the
// reference: records and raw tuples enter through deliver() and
// deliver_raw_batch() in (shard, arrival) order before the close, which
// then only folds the polls and ends the levels. With one switch the
// serial reference is the single-switch loop itself: each batch of
// kOneSwitchBatch packets is delivered as the switch emits it, and the
// close is poll_switch, close_levels and a register reset.
constexpr std::size_t kSerial = static_cast<std::size_t>(-1);
constexpr std::size_t kOneSwitchBatch = 64;
constexpr std::size_t kRegisterShrink = 4;  // shrunken registers overflow keys to the SP

void deliver_serially(StreamProcessor& sp, std::span<pisa::EmitRecord> records,
                      WindowStats& stats) {
  for (pisa::EmitRecord& rec : records) {
    const bool overflow = rec.kind == pisa::EmitRecord::Kind::kOverflow;
    if (sp.deliver(std::move(rec)) && overflow) ++stats.overflow_records;
  }
}

// The single-switch loop's window up to its close: each batch runs through
// `sw` and reaches the SP as it is emitted, then the registers are polled.
void one_switch_window(StreamProcessor& sp, pisa::Switch& sw, pisa::EmitSink& sink,
                       std::span<Tuple> tuples, WindowStats& stats) {
  const bool raw_mirror = sp.wants_raw_mirror();
  for (std::size_t off = 0; off < tuples.size(); off += kOneSwitchBatch) {
    const std::span<Tuple> batch =
        tuples.subspan(off, std::min(kOneSwitchBatch, tuples.size() - off));
    sink.clear();
    sw.process_batch(batch, sink);
    stats.tuples_to_sp += raw_mirror ? batch.size() : sink.packets_with_records();
    stats.raw_mirror_packets += raw_mirror ? batch.size() : 0;
    deliver_serially(sp, sink.records(), stats);
    if (raw_mirror) sp.deliver_raw_batch(batch);
  }
  stats.packets = tuples.size();
  stats.contribution_mask = 1;
  sp.poll_switch(sw);
}

std::vector<Observed> run_sp(const Plan& plan, std::size_t threads,
                             std::size_t shards = kShards) {
  const bool one_switch = shards == 1 && threads == kSerial;
  std::vector<std::unique_ptr<pisa::Switch>> switches;
  std::vector<pisa::Switch*> raw;
  for (std::size_t i = 0; i < shards; ++i) {
    switches.push_back(std::make_unique<pisa::Switch>(plan.switch_config));
    PipelineBuild build = build_pipelines(plan, {}, {.register_shrink = kRegisterShrink});
    EXPECT_EQ(switches.back()->install(std::move(build.pipelines), build.resources), "");
    raw.push_back(switches.back().get());
  }
  StreamProcessor sp(plan);
  std::vector<std::pair<std::string, std::vector<Tuple>>> installs;
  sp.set_winner_sink([&](const std::string& table, std::span<const Tuple> keys) {
    installs.emplace_back(table, std::vector<Tuple>(keys.begin(), keys.end()));
  });
  TuplesIn tuples_in(plan);
  std::uint64_t seen = obs::Journal::global().emitted();
  std::vector<Observed> out;
  std::vector<pisa::EmitSink> sinks(shards);
  std::vector<std::vector<Tuple>> tuples(shards);
  std::vector<std::vector<pisa::PolledBlock>> polls(shards);
  for (std::size_t w = 0; w < windows().size(); ++w) {
    for (auto& t : tuples) t.clear();
    for (const net::Packet& p : windows()[w]) {
      const std::uint64_t flow = util::hash_combine(
          util::hash_combine(p.src_ip, p.dst_ip),
          (static_cast<std::uint64_t>(p.src_port) << 24) ^
              (static_cast<std::uint64_t>(p.dst_port) << 8) ^ p.proto);
      tuples[flow % shards].push_back(query::materialize_tuple(p));
    }
    Observed o;
    o.stats.window_index = w;
    installs.clear();
    const double control_before = switches[0]->stats().control_update_millis;
    std::vector<ShardOutput> outputs;
    if (one_switch) {
      one_switch_window(sp, *switches[0], sinks[0], tuples[0], o.stats);
      sp.close_levels(o.stats, raw);
    }
    for (std::size_t i = 0; i < shards && !one_switch; ++i) {
      sinks[i].clear();
      switches[i]->process_batch(tuples[i], sinks[i]);
      const auto& pipelines = switches[i]->pipelines();
      polls[i].resize(pipelines.size());
      for (std::size_t p = 0; p < pipelines.size(); ++p) pipelines[p]->poll_block(polls[i][p]);
      const bool raw_mirror = sp.wants_raw_mirror();
      o.stats.packets += tuples[i].size();
      o.stats.tuples_to_sp += raw_mirror ? tuples[i].size() : sinks[i].packets_with_records();
      const std::span<Tuple> raws = raw_mirror ? std::span<Tuple>(tuples[i]) : std::span<Tuple>{};
      if (threads != kSerial) {
        outputs.push_back({sinks[i].records(), raws, &polls[i]});
        continue;
      }
      deliver_serially(sp, sinks[i].records(), o.stats);
      sp.deliver_raw_batch(raws);
      outputs.push_back({{}, {}, &polls[i]});
    }
    if (one_switch) {
      // Closed above.
    } else if (threads == 0 || threads == kSerial) {
      sp.close_window(o.stats, outputs, switches[0]->pipelines(), raw);
    } else {
      sp.close_window(o.stats, outputs, switches[0]->pipelines(), raw, threads,
                      threaded_runner(threads));
    }
    for (auto& sw : switches) sw->reset_all_registers();
    if (one_switch) {
      o.stats.control_update_millis = switches[0]->stats().control_update_millis - control_before;
    }
    o.tuples_in = tuples_in.delta();
    o.emitter = sp.emitter().per_query();
    o.emitter_total = sp.emitter().total_tuples();
    for (const auto& sw : switches) o.filter_updates.push_back(sw->stats().filter_entry_updates);
    o.events = new_events(seen);
    o.installs = installs;
    out.push_back(std::move(o));
  }
  return out;
}

TEST(ParallelClose, TaskRunnersMatchSerialDelivery) {
  ScopedObs obs_on;
  for (const bool sketch : {false, true}) {
    const Plan plan = make_plan(sketch ? PlanMode::kMaxDP : PlanMode::kSonata, sketch, true);
    const auto want = run_sp(plan, kSerial);
    std::size_t installs = 0, outputs = 0, overflows = 0;
    for (const auto& o : want) {
      installs += o.installs.size();
      overflows += o.stats.overflow_records;
      for (const auto& r : o.stats.results) outputs += r.outputs.size();
    }
    EXPECT_GT(outputs, 10 * want.size() * plan.queries.size()) << "outputs too few to order";
    if (!sketch) {
      EXPECT_GT(installs, 0u) << "the refined plan installed no winners";
      EXPECT_GT(overflows, 0u) << "no key overflowed its registers";
    }
    for (const std::size_t threads : {0u, 1u, 3u, 8u}) {
      expect_same(want, run_sp(plan, threads),
                  std::string(sketch ? "sketch" : "sonata") + " runner " +
                      std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelClose, RuntimeMatchesOneSwitchSerialDelivery) {
  // Runtime holds its records until the close, then runs the Fleet's
  // close; the reference delivers them as they are emitted and closes the
  // way the single-switch loop always has. Every deterministic field must
  // agree, control_update_millis to the last bit. Runtime has no winner
  // sink, and its re-planning trigger is a window-end policy the reference
  // does not model.
  ScopedObs obs_on;
  fault::FaultSpec shrink;
  shrink.register_shrink = kRegisterShrink;
  for (const PlanMode mode : {PlanMode::kSonata, PlanMode::kAllSP}) {
    for (const bool sketch : {false, true}) {
      if (mode == PlanMode::kAllSP && sketch) continue;
      const Plan plan = make_plan(sketch ? PlanMode::kMaxDP : mode, sketch, true);
      auto want = run_sp(plan, kSerial, 1);
      std::uint64_t overflows = 0, updates = 0;
      for (auto& o : want) {
        o.installs.clear();
        overflows += o.stats.overflow_records;
      }
      updates = want.back().filter_updates.front();
      const std::string label = mode == PlanMode::kAllSP ? "all-sp" : sketch ? "sketch" : "sonata";
      if (mode == PlanMode::kSonata && !sketch) {
        EXPECT_GT(overflows, 0u) << "no key overflowed its registers";
        EXPECT_GT(updates, 0u) << "the refined plan installed no winners";
      }
      for (const std::size_t batch : {1u, 7u, 256u}) {
        Runtime rt(plan, batch, shrink);
        auto got = observe(rt);
        for (auto& o : got) {
          std::erase_if(o.events, [](const Event& e) {
            return std::get<0>(e) == obs::EventType::kReplanTriggered;
          });
        }
        expect_same(want, got, label + " runtime batch " + std::to_string(batch));
      }
    }
  }
}

// The Collector over shm, its close on its own pool, with two switch nodes
// whose frames carry `faults` and whose data paths flush every `batch`
// packets. `injected` returns the nodes' injected frame faults.
std::vector<Observed> run_collector(const Plan& plan, const fault::FaultSpec& faults,
                                    std::size_t batch, std::uint64_t* injected) {
  constexpr std::uint16_t kNodes = 2;
  const std::string prefix = "/tmp/sonata_pc." + std::to_string(::getpid());
  const auto spec = net::transport::parse_endpoint("shm:" + prefix);
  if (!spec.has_value()) {
    ADD_FAILURE() << spec.error();
    return {};
  }
  DistributedConfig dcfg;
  dcfg.switches = kShards;
  dcfg.nodes = kNodes;
  dcfg.batch = batch;
  auto ep = net::transport::make_collector_endpoint(*spec, kNodes);
  if (!ep.has_value()) {
    ADD_FAILURE() << ep.error();
    return {};
  }
  Collector collector(plan, dcfg, std::move(*ep));
  if (const std::string err = collector.listen(); !err.empty()) {
    ADD_FAILURE() << err;
    return {};
  }
  TuplesIn tuples_in(plan);
  std::vector<Observed> got;
  std::string collector_err;
  std::thread collector_thread([&] {
    collector_err = collector.run([&](const WindowStats& ws) {
      // Metrics are on: the collector times its frame decode and close.
      EXPECT_GT(ws.phases.close_nanos, 0u);
      EXPECT_EQ(ws.phases.total_nanos, ws.phases.merge_nanos + ws.phases.close_nanos);
      Observed o;
      o.stats = ws;
      o.tuples_in = tuples_in.delta();
      o.emitter = collector.stream_processor().emitter().per_query();
      o.emitter_total = collector.stream_processor().emitter().total_tuples();
      got.push_back(std::move(o));
    });
  });
  std::string node_err[kNodes];
  std::uint64_t node_faults[kNodes] = {};
  std::vector<std::thread> node_threads;
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    node_threads.emplace_back([&, n] {
      DistributedConfig ncfg = dcfg;
      ncfg.node_index = n;
      ncfg.faults = faults;
      auto transport = net::transport::make_switch_transport(*spec, n);
      if (!transport) {
        node_err[n] = transport.error();
        return;
      }
      SwitchNode node(plan, ncfg, std::move(*transport));
      node_err[n] = node.run(scenario().trace);
      node_faults[n] = node.faults().duplicated + node.faults().reordered;
    });
  }
  for (auto& t : node_threads) t.join();
  collector_thread.join();
  for (std::uint16_t n = 0; n < kNodes; ++n) {
    ::unlink((prefix + ".n" + std::to_string(n) + ".up").c_str());
    ::unlink((prefix + ".n" + std::to_string(n) + ".down").c_str());
  }
  EXPECT_EQ(collector_err, "");
  for (std::uint16_t n = 0; n < kNodes; ++n) EXPECT_EQ(node_err[n], "") << "node " << n;
  if (injected != nullptr) *injected = node_faults[0] + node_faults[1];
  return got;
}

// The Collector against the inline Fleet, window by window. The
// collector's switches live in other processes' roles: its installs model
// no local latency, and its journal holds the nodes' events too.
void check_collector(const Plan& plan, const fault::FaultSpec& faults, const std::string& label,
                     std::uint64_t* injected = nullptr, std::size_t batch = 256) {
  std::vector<Observed> want = run_fleet(plan, 0, {});
  std::vector<Observed> got = run_collector(plan, faults, batch, injected);
  for (auto* side : {&want, &got}) {
    for (Observed& o : *side) {
      o.stats.control_update_millis = 0.0;
      o.filter_updates.clear();
      o.events.clear();
    }
  }
  expect_same(want, got, label);
}

TEST(ParallelClose, CollectorOverShmMatchesInProcessFleet) {
  ScopedObs obs_on;
  check_collector(make_plan(PlanMode::kSonata, false), {}, "collector sonata");
}

TEST(ParallelClose, SketchCollectorOverShmMatchesInProcessFleet) {
  ScopedObs obs_on;
  check_collector(make_plan(PlanMode::kMaxDP, true), {}, "collector sketch");
}

TEST(ParallelClose, AllSpCollectorOverShmAtRaggedBatchMatchesInProcessFleet) {
  // The switch nodes ship kRaw frames, and their executors flush every 7
  // packets, so windows end on partial batches; the reference Fleet runs
  // at batch 256.
  ScopedObs obs_on;
  const Plan plan = make_plan(PlanMode::kAllSP, false);
  ASSERT_TRUE(StreamProcessor::plan_wants_raw_mirror(plan));
  check_collector(plan, {}, "collector all-sp batch 7", nullptr, 7);
}

TEST(ParallelClose, FrameFaultCollectorOverShmMatchesInProcessFleet) {
  // Duplicated and reordered frames lose nothing: the collector's
  // reassembly restores each node's frame order before the close.
  fault::FaultSpec faults;
  faults.seed = 5;
  faults.dup_rate = 0.05;
  faults.reorder_rate = 0.05;
  ScopedObs obs_on;
  std::uint64_t injected = 0;
  check_collector(make_plan(PlanMode::kSonata, false), faults, "collector frame faults",
                  &injected);
  EXPECT_GT(injected, 0u) << "no frame was duplicated or reordered";
}

}  // namespace
}  // namespace sonata::runtime
