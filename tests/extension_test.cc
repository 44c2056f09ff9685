// Tests for the paper's future-work extensions we implement:
//   * network-wide (multi-switch) telemetry with merged stream state,
//   * closed-loop mitigation (detections install line-rate drop rules).
#include <gtest/gtest.h>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/fleet.h"
#include "runtime/runtime.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/ip.h"

namespace sonata::runtime {
namespace {

using planner::Plan;
using planner::PlanMode;
using planner::Planner;
using planner::PlannerConfig;

std::set<std::uint64_t> detections_for(const WindowStats& ws, query::QueryId qid) {
  std::set<std::uint64_t> out;
  for (const auto& r : ws.results) {
    if (r.qid != qid) continue;
    for (const auto& t : r.outputs) out.insert(t.at(0).as_uint());
  }
  return out;
}

// --- network-wide fleet -------------------------------------------------

class FleetTest : public ::testing::Test {
 protected:
  static const testing::Scenario& scenario() {
    static const testing::Scenario sc = testing::make_scenario();
    return sc;
  }
};

TEST_F(FleetTest, FleetMatchesSingleSwitchDetections) {
  // Splitting traffic across 4 switches and merging at the SP must yield
  // the same detections as one switch seeing everything.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  qs.push_back(queries::make_ddos(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Runtime single(plan);
  Fleet fleet(plan, 4);
  const auto sw = single.run_trace(scenario().trace);
  const auto fw = fleet.run_trace(scenario().trace);
  ASSERT_EQ(sw.size(), fw.size());
  for (std::size_t w = 0; w < sw.size(); ++w) {
    for (const auto& q : qs) {
      EXPECT_EQ(detections_for(sw[w], q.id()), detections_for(fw[w], q.id()))
          << "window " << w << " query " << q.name();
    }
  }
}

TEST_F(FleetTest, DetectsAggregateOnlyHeavyHitter) {
  // The network-wide headline case: a victim whose per-switch SYN count is
  // below threshold on every switch, but whose fleet-wide sum crosses it.
  const std::uint32_t victim = util::ipv4(120, 3, 0, 9);
  trace::BackgroundConfig bg;
  bg.duration_sec = 6.0;
  bg.flows_per_sec = 200.0;
  trace::TraceBuilder builder(77);
  builder.background(bg);
  trace::SynFloodConfig flood;
  flood.victim = victim;
  flood.start_sec = 0.5;
  flood.duration_sec = 5.0;
  flood.pps = 400;  // ~1200 SYN/window fleet-wide, ~300 per switch
  builder.add(flood);
  const auto trace = builder.build();

  queries::Thresholds th;
  th.newly_opened = 800;  // above any single switch's share, below the sum
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, trace);

  Fleet fleet(plan, 4);
  bool detected = false;
  std::uint64_t per_switch_max = 0;
  for (const auto& ws : fleet.run_trace(trace)) {
    if (detections_for(ws, 1).contains(victim)) detected = true;
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    per_switch_max = std::max(per_switch_max, fleet.data_plane(i).stats().packets_processed);
  }
  EXPECT_TRUE(detected) << "fleet-wide aggregation must catch the victim";
  // Sanity: traffic really was spread across switches.
  EXPECT_LT(per_switch_max, trace.size());
}

TEST_F(FleetTest, TrafficSpreadsAcrossSwitches) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  Fleet fleet(plan, 3);
  (void)fleet.run_trace(scenario().trace);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto n = fleet.data_plane(i).stats().packets_processed;
    EXPECT_GT(n, scenario().trace.size() / 10) << "switch " << i;
    total += n;
  }
  EXPECT_EQ(total, scenario().trace.size());
}

TEST_F(FleetTest, RefinedFleetStillDetects) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  pisa::SwitchConfig scarce;
  scarce.max_bits_per_register = 48 * 1024;
  scarce.register_bits_per_stage = 48 * 1024;
  PlannerConfig cfg;
  cfg.switch_config = scarce;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  ASSERT_GE(plan.queries[0].chain.size(), 2u);

  Fleet fleet(plan, 3);
  bool detected = false;
  for (const auto& ws : fleet.run_trace(scenario().trace)) {
    if (detections_for(ws, 1).contains(scenario().syn_victim)) detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST_F(FleetTest, RefinedJoinQueryWithRawSourceOnFleet) {
  // Zorro on a fleet: the raw (payload) source executes only at the finest
  // level, so the per-level source remapping must hold on every switch and
  // the probes sub-query's merged aggregates must still drive refinement.
  queries::Thresholds th;
  th.zorro_probes = 60;
  th.zorro_keyword = 2;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_zorro(th, util::seconds(3)));

  trace::TraceBuilder builder(13);
  trace::BackgroundConfig bg;
  bg.duration_sec = 12.0;
  bg.flows_per_sec = 150.0;
  bg.telnet_fraction = 0.1;
  builder.background(bg);
  trace::ZorroConfig zorro;
  zorro.attacker = util::ipv4(202, 1, 1, 1);
  zorro.victim = util::ipv4(99, 7, 0, 25);
  zorro.start_sec = 1.0;
  zorro.probe_duration_sec = 10.5;
  zorro.probe_pps = 200;
  zorro.shell_at_sec = 10.0;
  builder.add(zorro);
  const auto trace = builder.build();

  PlannerConfig cfg;
  cfg.max_delay_windows = 2;
  const Plan plan = Planner(cfg).plan(qs, trace);
  Fleet fleet(plan, 3);
  bool detected = false;
  for (const auto& ws : fleet.run_trace(trace)) {
    if (detections_for(ws, 10).contains(zorro.victim)) detected = true;
  }
  EXPECT_TRUE(detected);
}

// --- closed-loop mitigation -----------------------------------------------

TEST(Mitigation, DetectionsInstallDropRulesAndCutLoad) {
  const auto& sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);

  // One switch, and 4 switches on 2 workers: the rule lands on every
  // switch, and the threaded fleet's windows equal the inline fleet's.
  std::vector<std::vector<WindowStats>> runs;
  for (const auto& [switches, workers] : {std::pair{1, 0}, {4, 2}, {4, 0}}) {
    SCOPED_TRACE(std::to_string(switches) + " switches, " + std::to_string(workers) + " workers");
    std::unique_ptr<Fleet> engine = switches == 1 ? std::make_unique<Runtime>(plan)
                                                  : std::make_unique<Fleet>(plan, 4, workers, 256);
    engine->enable_mitigation({.qid = 1, .output_column = "dIP", .packet_field = "dIP"});
    const auto& windows = runs.emplace_back(engine->run_trace(sc.trace));

    // First detection window installs the drop rule; later windows drop
    // the flood at line rate and stop re-detecting the (now silenced)
    // victim.
    std::size_t first_detect = windows.size();
    for (std::size_t w = 0; w < windows.size(); ++w) {
      if (detections_for(windows[w], 1).contains(sc.syn_victim)) {
        first_detect = std::min(first_detect, w);
      }
    }
    ASSERT_LT(first_detect, windows.size());
    EXPECT_EQ(windows[first_detect].dropped_packets, 0u);  // rule installs at window end
    ASSERT_LT(first_detect + 1, windows.size());
    EXPECT_GT(windows[first_detect + 1].dropped_packets, 1000u);
    EXPECT_FALSE(detections_for(windows[first_detect + 1], 1).contains(sc.syn_victim));
    std::uint64_t window_drops = 0, switch_drops = 0;
    for (const auto& w : windows) window_drops += w.dropped_packets;
    for (std::size_t i = 0; i < engine->data_plane_count(); ++i) {
      EXPECT_GE(engine->data_plane(i).blocked_keys(), 1u) << "switch " << i;
      switch_drops += engine->data_plane(i).stats().dropped_packets;
    }
    EXPECT_GT(switch_drops, 0u);
    EXPECT_EQ(window_drops, switch_drops);
  }

  const auto& threaded = runs[1];
  const auto& want = runs[2];
  ASSERT_EQ(threaded.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(threaded[w].packets, want[w].packets);
    EXPECT_EQ(threaded[w].tuples_to_sp, want[w].tuples_to_sp);
    EXPECT_EQ(threaded[w].overflow_records, want[w].overflow_records);
    EXPECT_EQ(threaded[w].dropped_packets, want[w].dropped_packets);
    EXPECT_EQ(threaded[w].control_update_millis, want[w].control_update_millis);
    EXPECT_EQ(threaded[w].contribution_mask, want[w].contribution_mask);
    ASSERT_EQ(threaded[w].results.size(), want[w].results.size());
    for (std::size_t r = 0; r < want[w].results.size(); ++r) {
      EXPECT_EQ(threaded[w].results[r].outputs, want[w].results[r].outputs);
    }
    EXPECT_EQ(threaded[w].winners, want[w].winners);
  }
}

// A switch quarantined in the window that first detects the victim
// misses that close's drop rule. It must get the rule at the next close it
// contributes to, even when the attack pauses and nothing re-detects the
// victim.
TEST(Mitigation, QuarantinedSwitchCatchesUpOnDropRules) {
  const auto& sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);
  const Fleet::MitigationPolicy policy{.qid = 1, .output_column = "dIP", .packet_field = "dIP"};

  Fleet healthy(plan, 3, 2, 256);
  healthy.enable_mitigation(policy);
  const auto windows = healthy.run_trace(sc.trace);
  std::size_t detect = 0;
  while (detect < windows.size() &&
         !detections_for(windows[detect], 1).contains(sc.syn_victim)) {
    ++detect;
  }
  ASSERT_LT(detect + 1, windows.size());

  fault::FaultSpec stall;
  stall.stall_switch = 1;
  stall.stall_from_window = detect;
  stall.stall_windows = 1;
  stall.watchdog_ms = 1000;  // generous: sanitizer builds drain slowly
  Fleet fleet(plan, 3, 2, 256, stall);
  fleet.enable_mitigation(policy);
  const auto slices = trace::split_windows(sc.trace, plan.window);
  for (std::size_t w = 0; w <= detect; ++w) {
    const WindowStats ws = fleet.process_window(slices[w]);
    if (w < detect) continue;
    // The fixture: switch 1 is quarantined while the others detect.
    EXPECT_EQ(ws.contribution_mask, 0b101u);
    EXPECT_TRUE(detections_for(ws, 1).contains(sc.syn_victim));
  }
  EXPECT_EQ(fleet.data_plane(1).blocked_keys(), 0u);
  EXPECT_GE(fleet.data_plane(0).blocked_keys(), 1u);

  // The next window, stall over, without the victim's traffic.
  std::vector<net::Packet> paused;
  for (const net::Packet& p : slices[detect + 1]) {
    if (p.dst_ip != sc.syn_victim) paused.push_back(p);
  }
  const WindowStats after = fleet.process_window(paused);
  EXPECT_EQ(after.contribution_mask, 0b111u);
  EXPECT_FALSE(detections_for(after, 1).contains(sc.syn_victim));
  for (std::size_t i = 1; i < fleet.data_plane_count(); ++i) {
    EXPECT_EQ(fleet.data_plane(i).blocked_keys(), fleet.data_plane(0).blocked_keys())
        << "switch " << i;
  }
}

// A switch that only lost a frame on the faulty wire is healthy: its
// contribution bit is cleared for the window, but it must still get every
// drop rule at that close, so every switch blocks the same keys throughout.
TEST(Mitigation, WireLossDoesNotSkipAHealthySwitch) {
  const auto& sc = testing::make_scenario();
  // Every evaluation query, so every switch ships record frames to lose.
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);
  fault::FaultSpec wire;
  wire.seed = 2;
  wire.drop_rate = 0.2;
  Fleet fleet(plan, 8, 2, 256, wire);
  fleet.enable_mitigation({.qid = 1, .output_column = "dIP", .packet_field = "dIP"});
  std::size_t blocked = 0;
  std::size_t lossy_and_new = 0;  // windows that lost frames and blocked new keys
  for (const auto& slice : trace::split_windows(sc.trace, plan.window)) {
    const WindowStats ws = fleet.process_window(slice);
    std::size_t most = 0;
    for (std::size_t i = 0; i < fleet.data_plane_count(); ++i) {
      EXPECT_EQ(fleet.data_plane(i).blocked_keys(), fleet.data_plane(0).blocked_keys())
          << "window " << ws.window_index << " switch " << i;
      most = std::max(most, fleet.data_plane(i).blocked_keys());
    }
    if (ws.faults.dropped > 0 && most > blocked) ++lossy_and_new;
    blocked = most;
  }
  EXPECT_GT(lossy_and_new, 0u) << "fixture: no window both lost a frame and blocked a new key";
}

TEST(Mitigation, GuardTableBudgetIsRespected) {
  const auto& sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);
  Runtime rt(plan);
  rt.enable_mitigation(
      {.qid = 1, .output_column = "dIP", .packet_field = "dIP", .max_entries = 2});
  (void)rt.run_trace(sc.trace);
  EXPECT_LE(rt.data_plane(0).blocked_keys(), 2u);
}

TEST(Mitigation, SwitchBlockSemantics) {
  pisa::Switch sw(pisa::SwitchConfig{});
  ASSERT_EQ(sw.install({}, {}), "");
  EXPECT_FALSE(sw.block("not.a.field", query::Value{std::uint64_t{1}}));
  EXPECT_TRUE(sw.block("dIP", query::Value{std::uint64_t{util::ipv4(9, 9, 9, 9)}}));
  EXPECT_EQ(sw.blocked_keys(), 1u);

  std::vector<pisa::EmitRecord> out;
  sw.process(net::Packet::tcp(0, 1, util::ipv4(9, 9, 9, 9), 2, 3, 0, 40), out);
  EXPECT_EQ(sw.stats().dropped_packets, 1u);
  sw.process(net::Packet::tcp(0, 1, util::ipv4(8, 8, 8, 8), 2, 3, 0, 40), out);
  EXPECT_EQ(sw.stats().dropped_packets, 1u);  // other hosts unaffected

  sw.clear_blocks();
  EXPECT_EQ(sw.blocked_keys(), 0u);
  sw.process(net::Packet::tcp(0, 1, util::ipv4(9, 9, 9, 9), 2, 3, 0, 40), out);
  EXPECT_EQ(sw.stats().dropped_packets, 1u);  // no longer dropped
}

}  // namespace
}  // namespace sonata::runtime
