#include <gtest/gtest.h>

#include <set>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/runtime.h"
#include "stream/executor.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/ip.h"

namespace sonata::runtime {
namespace {

using planner::Plan;
using planner::PlanMode;
using planner::Planner;
using planner::PlannerConfig;
using query::Tuple;

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario();
  return sc;
}

std::vector<query::Query> eval_queries() {
  return queries::evaluation_queries(scenario().thresholds, util::seconds(3));
}

Plan make_plan(const std::vector<query::Query>& qs, PlanMode mode,
               pisa::SwitchConfig sw = {}) {
  PlannerConfig cfg;
  cfg.mode = mode;
  cfg.switch_config = sw;
  return Planner(cfg).plan(qs, scenario().trace);
}

// Reference: pure stream-processor execution, per window.
std::vector<std::map<query::QueryId, std::set<std::uint64_t>>> reference_detections(
    const std::vector<query::Query>& qs) {
  std::vector<std::map<query::QueryId, std::set<std::uint64_t>>> out;
  std::vector<std::unique_ptr<stream::QueryExecutor>> execs;
  for (const auto& q : qs) execs.push_back(std::make_unique<stream::QueryExecutor>(q));
  const auto windows = trace::split_windows(scenario().trace, util::seconds(3));
  for (const auto& w : windows) {
    std::map<query::QueryId, std::set<std::uint64_t>> dets;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      for (const auto& p : w) execs[i]->ingest_packet(p);
      for (const auto& t : execs[i]->end_window()) {
        dets[qs[i].id()].insert(t.at(0).as_uint());
      }
    }
    out.push_back(std::move(dets));
  }
  return out;
}

std::map<query::QueryId, std::set<std::uint64_t>> detections(const WindowStats& ws) {
  std::map<query::QueryId, std::set<std::uint64_t>> out;
  for (const auto& r : ws.results) {
    for (const auto& t : r.outputs) out[r.qid].insert(t.at(0).as_uint());
  }
  return out;
}

TEST(Runtime, AllSpMatchesReferenceExactly) {
  const auto qs = eval_queries();
  const Plan plan = make_plan(qs, PlanMode::kAllSP);
  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  const auto ref = reference_detections(qs);
  ASSERT_EQ(windows.size(), ref.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(detections(windows[w]), ref[w]) << "window " << w;
  }
}

TEST(Runtime, MaxDpMatchesReferenceExactly) {
  // Partitioned execution (registers + polls + overflow correction) must be
  // lossless: identical detections to the pure-SP reference in every window.
  const auto qs = eval_queries();
  const Plan plan = make_plan(qs, PlanMode::kMaxDP);
  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  const auto ref = reference_detections(qs);
  ASSERT_EQ(windows.size(), ref.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(detections(windows[w]), ref[w]) << "window " << w;
  }
}

TEST(Runtime, SonataConvergesToReferenceAfterWarmup) {
  const auto qs = eval_queries();
  const Plan plan = make_plan(qs, PlanMode::kSonata);
  std::size_t max_chain = 1;
  for (const auto& pq : plan.queries) max_chain = std::max(max_chain, pq.chain.size());

  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  const auto ref = reference_detections(qs);
  ASSERT_EQ(windows.size(), ref.size());
  // After the refinement warm-up (|R|-1 windows), detections match the
  // reference for attacks steady across windows.
  for (std::size_t w = max_chain - 1; w + 1 < windows.size(); ++w) {
    EXPECT_EQ(detections(windows[w]), ref[w]) << "window " << w;
  }
}

TEST(Runtime, SonataSendsFarFewerTuplesThanAllSp) {
  // Sharpest case: a single refinable query whose switch portion reports
  // only threshold-crossing keys. (With all 8 queries the join sub-queries
  // report one tuple per key, so the gap on this tiny trace is bounded by
  // packets-per-host; the Figure 7 benchmark shows the paper-scale gap.)
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  Runtime sonata(make_plan(qs, PlanMode::kSonata));
  Runtime all_sp(make_plan(qs, PlanMode::kAllSP));
  std::uint64_t n_sonata = 0, n_all = 0;
  for (const auto& ws : sonata.run_trace(scenario().trace)) n_sonata += ws.tuples_to_sp;
  for (const auto& ws : all_sp.run_trace(scenario().trace)) n_all += ws.tuples_to_sp;
  EXPECT_EQ(n_all, scenario().trace.size());  // every packet mirrored once
  EXPECT_LT(n_sonata, n_all / 50);

  // And across the full evaluation set Sonata still never exceeds All-SP.
  const auto all_qs = eval_queries();
  Runtime sonata8(make_plan(all_qs, PlanMode::kSonata));
  std::uint64_t n_sonata8 = 0;
  for (const auto& ws : sonata8.run_trace(scenario().trace)) n_sonata8 += ws.tuples_to_sp;
  EXPECT_LT(n_sonata8, n_all);
}

TEST(Runtime, RefinedPlanDelaysDetectionByChainLength) {
  // Single refinable query on a scarce switch: the first window(s) produce
  // no detections (coarse levels only), then detections appear.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  pisa::SwitchConfig scarce;
  scarce.max_bits_per_register = 48 * 1024;
  scarce.register_bits_per_stage = 48 * 1024;
  const Plan plan = make_plan(qs, PlanMode::kSonata, scarce);
  ASSERT_GE(plan.queries[0].chain.size(), 2u);
  const std::size_t delay = plan.queries[0].chain.size() - 1;

  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  for (std::size_t w = 0; w < delay && w < windows.size(); ++w) {
    EXPECT_TRUE(detections(windows[w]).empty()) << "window " << w;
  }
  ASSERT_GT(windows.size(), delay);
  const auto dets = detections(windows[delay]);
  ASSERT_TRUE(dets.contains(1));
  EXPECT_TRUE(dets.at(1).contains(scenario().syn_victim));
}

TEST(Runtime, DynamicFilterUpdatesAreInstalledBetweenWindows) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  pisa::SwitchConfig scarce;
  scarce.max_bits_per_register = 48 * 1024;
  scarce.register_bits_per_stage = 48 * 1024;
  const Plan plan = make_plan(qs, PlanMode::kSonata, scarce);
  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  // Filter-table updates happened (driver latency recorded).
  EXPECT_GT(rt.data_plane(0).stats().filter_entry_updates, 0u);
  EXPECT_GT(rt.data_plane(0).stats().control_update_millis, 0.0);
  // Control updates stay well under the window budget (paper: ~5% of W).
  for (const auto& ws : windows) {
    EXPECT_LT(ws.control_update_millis, 3000.0 * 0.5);
  }
}

TEST(Runtime, OverflowCorrectionKeepsResultsExact) {
  // Force heavy collisions: one query, tiny registers (but a switch that
  // accepts them), depth 1. Overflowed keys must still be counted exactly
  // via the stream processor.
  queries::Thresholds th = scenario().thresholds;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));

  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  cfg.register_depth = 1;
  cfg.register_headroom = 0.02;  // registers sized at 2% of the keys
  cfg.min_register_entries = 16;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  EXPECT_GT(rt.overflow_fraction(), 0.0) << "test needs collisions to be meaningful";

  const auto ref = reference_detections(qs);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(detections(windows[w]), ref[w]) << "window " << w;
  }
}

TEST(Runtime, EmitterTracksPerQueryLoad) {
  const auto qs = eval_queries();
  const Plan plan = make_plan(qs, PlanMode::kMaxDP);
  Runtime rt(plan);
  (void)rt.run_trace(scenario().trace);
  const auto& per_query = rt.emitter().per_query();
  EXPECT_FALSE(per_query.empty());
  std::uint64_t sum = 0;
  for (const auto& [qid, s] : per_query) sum += s.tuples;
  EXPECT_EQ(sum, rt.emitter().total_tuples());
}

TEST(Runtime, WindowStatsAccounting) {
  const auto qs = eval_queries();
  const Plan plan = make_plan(qs, PlanMode::kAllSP);
  Runtime rt(plan);
  const auto windows = rt.run_trace(scenario().trace);
  std::uint64_t packets = 0;
  for (const auto& ws : windows) {
    EXPECT_EQ(ws.tuples_to_sp, ws.packets);  // All-SP: one mirror per packet
    EXPECT_EQ(ws.raw_mirror_packets, ws.packets);
    packets += ws.packets;
  }
  EXPECT_EQ(packets, scenario().trace.size());
  // Window indices are sequential.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].window_index, i);
  }
}

TEST(Runtime, ZorroEndToEndWithPayloads) {
  queries::Thresholds th;
  th.zorro_probes = 50;
  th.zorro_keyword = 3;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_zorro(th, util::seconds(3)));

  trace::TraceBuilder builder(7);
  trace::BackgroundConfig bg;
  bg.duration_sec = 12.0;
  bg.flows_per_sec = 120.0;
  builder.background(bg);
  trace::ZorroConfig zorro;
  zorro.attacker = util::ipv4(202, 1, 1, 1);
  zorro.victim = util::ipv4(99, 7, 0, 25);
  zorro.start_sec = 1.0;
  // Probes keep flowing while the shell commands are issued (as in the
  // paper's Figure 9 timeline), so the same-window join sees both.
  zorro.probe_duration_sec = 10.5;
  zorro.shell_at_sec = 10.0;
  builder.add(zorro);
  const auto trace = builder.build();

  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  const Plan plan = Planner(cfg).plan(qs, trace);
  Runtime rt(plan);
  const auto windows = rt.run_trace(trace);
  bool detected = false;
  for (const auto& ws : windows) {
    const auto dets = detections(ws);
    if (dets.contains(10) && dets.at(10).contains(zorro.victim)) detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST(Runtime, FastFluxDnsRefinement) {
  queries::Thresholds th;
  th.fast_flux = 80;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_fast_flux(th, util::seconds(3)));

  trace::TraceBuilder builder(9);
  trace::BackgroundConfig bg;
  bg.duration_sec = 12.0;
  bg.flows_per_sec = 150.0;
  builder.background(bg);
  trace::MaliciousDomainConfig flux;
  flux.resolver = util::ipv4(8, 8, 8, 8);
  flux.start_sec = 1.0;
  flux.duration_sec = 10.0;
  flux.distinct_resolutions = 3000;
  builder.add(flux);
  const auto trace = builder.build();

  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  const Plan plan = Planner(cfg).plan(qs, trace);
  Runtime rt(plan);
  bool detected = false;
  for (const auto& ws : rt.run_trace(trace)) {
    for (const auto& r : ws.results) {
      for (const auto& t : r.outputs) {
        if (t.at(0).as_string() == flux.domain) detected = true;
      }
    }
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace sonata::runtime
