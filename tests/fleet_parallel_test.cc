// Parallel fleet execution: worker threads must be invisible in the
// results. The fleet buffers each switch's mirrored records per window and
// merges them at the barrier in switch order, so every window's outputs
// and tuple accounting must be bit-identical for any worker-thread count
// (including the inline threads=0 path).
#include <gtest/gtest.h>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/engine.h"
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

const testing::Scenario& scenario() {
  static const testing::Scenario sc = testing::make_scenario();
  return sc;
}

// Everything a window produced, in output order (not as a set): any
// nondeterministic interleaving shows up as a mismatch here.
void expect_identical_windows(const std::vector<WindowStats>& a,
                              const std::vector<WindowStats>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE(label + " window " + std::to_string(w));
    EXPECT_EQ(a[w].packets, b[w].packets);
    EXPECT_EQ(a[w].tuples_to_sp, b[w].tuples_to_sp);
    EXPECT_EQ(a[w].raw_mirror_packets, b[w].raw_mirror_packets);
    EXPECT_EQ(a[w].overflow_records, b[w].overflow_records);
    ASSERT_EQ(a[w].results.size(), b[w].results.size());
    for (std::size_t r = 0; r < a[w].results.size(); ++r) {
      EXPECT_EQ(a[w].results[r].qid, b[w].results[r].qid);
      EXPECT_EQ(a[w].results[r].outputs, b[w].results[r].outputs);
    }
    EXPECT_EQ(a[w].winners, b[w].winners);
  }
}

TEST(FleetParallel, RunTraceIsBitIdenticalAcrossThreadCounts) {
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Fleet serial(plan, 8, 0);
  const auto reference = serial.run_trace(scenario().trace);
  ASSERT_FALSE(reference.empty());
  std::uint64_t ref_tuples = 0;
  for (const auto& ws : reference) ref_tuples += ws.tuples_to_sp;
  EXPECT_GT(ref_tuples, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    Fleet fleet(plan, 8, threads);
    EXPECT_EQ(fleet.worker_threads(), threads);
    const auto windows = fleet.run_trace(scenario().trace);
    expect_identical_windows(reference, windows, std::to_string(threads) + " threads");
  }
}

TEST(FleetParallel, RefinedPlanIsBitIdenticalAcrossThreadCounts) {
  // Dynamic refinement threads winner keys through the window barrier:
  // filter-table installs must also be deterministic.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  pisa::SwitchConfig scarce;
  scarce.max_bits_per_register = 48 * 1024;
  scarce.register_bits_per_stage = 48 * 1024;
  PlannerConfig cfg;
  cfg.switch_config = scarce;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  ASSERT_GE(plan.queries[0].chain.size(), 2u);

  Fleet serial(plan, 4, 0);
  const auto reference = serial.run_trace(scenario().trace);
  for (const std::size_t threads : {1u, 4u}) {
    Fleet fleet(plan, 4, threads);
    expect_identical_windows(reference, fleet.run_trace(scenario().trace),
                             std::to_string(threads) + " threads");
  }
}

TEST(FleetParallel, ParallelFleetMatchesSingleSwitchDetections) {
  // The network-wide merge invariant holds under threading too.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  qs.push_back(queries::make_ddos(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Runtime single(plan);
  Fleet fleet(plan, 4, 2);
  const auto sw = single.run_trace(scenario().trace);
  const auto fw = fleet.run_trace(scenario().trace);
  ASSERT_EQ(sw.size(), fw.size());
  auto detections = [](const WindowStats& ws, query::QueryId qid) {
    std::set<std::uint64_t> out;
    for (const auto& r : ws.results) {
      if (r.qid != qid) continue;
      for (const auto& t : r.outputs) out.insert(t.at(0).as_uint());
    }
    return out;
  };
  for (std::size_t w = 0; w < sw.size(); ++w) {
    for (const auto& q : qs) {
      EXPECT_EQ(detections(sw[w], q.id()), detections(fw[w], q.id()))
          << "window " << w << " query " << q.name();
    }
  }
}

TEST(FleetParallel, MidWindowBarrierPreservesStreamingState) {
  // close_window() mid-stream (not via run_trace) must flush queued packets
  // before merging: ingest across two windows by hand and compare with the
  // serial fleet.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Fleet serial(plan, 3, 0);
  Fleet parallel(plan, 3, 3);
  const auto& trace = scenario().trace;
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    serial.ingest(trace[i]);
    parallel.ingest(trace[i]);
  }
  const auto s1 = serial.close_window();
  const auto p1 = parallel.close_window();
  for (std::size_t i = half; i < trace.size(); ++i) {
    serial.ingest(trace[i]);
    parallel.ingest(trace[i]);
  }
  const auto s2 = serial.close_window();
  const auto p2 = parallel.close_window();
  expect_identical_windows({s1, s2}, {p1, p2}, "manual windows");
}

TEST(FleetParallel, BatchSizeIsBitIdenticalOnFlatPlan) {
  // Property check for the batched data path: for batch sizes that exercise
  // the degenerate (1), ragged-tail (7), and steady-state (256) shapes,
  // every (batch, threads) combination must reproduce the per-packet
  // serial reference bit for bit — outputs, winners, and accounting.
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Fleet serial(plan, 8, 0, 1);
  const auto reference = serial.run_trace(scenario().trace);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t batch : {1u, 7u, 256u}) {
    for (const std::size_t threads : {0u, 1u, 8u}) {
      Fleet fleet(plan, 8, threads, batch);
      expect_identical_windows(
          reference, fleet.run_trace(scenario().trace),
          "batch " + std::to_string(batch) + " threads " + std::to_string(threads));
    }
  }
}

TEST(FleetParallel, BatchOf1024IsBitIdenticalToBatchOf256Threaded) {
  // The shard rings hold four batches (at least 1024 slots), so a 1024-packet
  // handoff no longer fills a ring by itself; the windows must not change.
  EXPECT_EQ(Fleet::ring_capacity_for(1), 1024u);
  EXPECT_EQ(Fleet::ring_capacity_for(256), 1024u);
  EXPECT_EQ(Fleet::ring_capacity_for(1024), 4096u);
  EXPECT_EQ(Fleet::ring_capacity_for(1000), 4096u);
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Fleet reference(plan, 4, 2, 256);
  const auto want = reference.run_trace(scenario().trace);
  ASSERT_FALSE(want.empty());
  Fleet fleet(plan, 4, 2, 1024);
  expect_identical_windows(want, fleet.run_trace(scenario().trace), "batch 1024 threads 2");
}

TEST(FleetParallel, BatchSizeIsBitIdenticalOnRefinedPlan) {
  // Same property under dynamic refinement: winner keys computed from
  // batched windows must install the same filter entries, so later windows
  // stay identical too.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  pisa::SwitchConfig scarce;
  scarce.max_bits_per_register = 48 * 1024;
  scarce.register_bits_per_stage = 48 * 1024;
  PlannerConfig cfg;
  cfg.switch_config = scarce;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  ASSERT_GE(plan.queries[0].chain.size(), 2u);

  Fleet serial(plan, 4, 0, 1);
  const auto reference = serial.run_trace(scenario().trace);
  for (const std::size_t batch : {7u, 256u}) {
    for (const std::size_t threads : {0u, 1u, 4u}) {
      Fleet fleet(plan, 4, threads, batch);
      expect_identical_windows(
          reference, fleet.run_trace(scenario().trace),
          "batch " + std::to_string(batch) + " threads " + std::to_string(threads));
    }
  }
}

TEST(FleetParallel, BatchedRuntimeMatchesPerPacketRuntime) {
  // The single-switch driver shares the property: batched Runtime windows
  // equal the per-packet ones, including mid-stream manual window closes
  // with a ragged tail batch.
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  Runtime per_packet(plan, 1);
  const auto reference = per_packet.run_trace(scenario().trace);
  for (const std::size_t batch : {7u, 256u}) {
    Runtime batched(plan, batch);
    expect_identical_windows(reference, batched.run_trace(scenario().trace),
                             "runtime batch " + std::to_string(batch));
  }
}

TEST(FleetParallel, EngineBuilderPicksDriverFromTopology) {
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const auto build = [&](std::size_t switches, std::size_t threads) {
    auto built =
        runtime::EngineBuilder()
            .topology(switches, threads)
            .planner(cfg)
            .training(scenario().trace)
            .admit(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)))
            .build();
    EXPECT_TRUE(built);
    return std::move(*built);
  };

  const auto single = build(1, 0);
  EXPECT_NE(dynamic_cast<Runtime*>(single.get()), nullptr);
  EXPECT_EQ(single->data_plane_count(), 1u);

  const auto fleet = build(4, 2);
  EXPECT_NE(dynamic_cast<Fleet*>(fleet.get()), nullptr);
  EXPECT_EQ(fleet->data_plane_count(), 4u);

  // Both drivers behind the same interface replay the same trace with the
  // same detections.
  auto run = [&](TelemetryEngine& e) {
    std::set<std::uint64_t> dets;
    for (const auto& ws : e.run_trace(scenario().trace)) {
      for (const auto& r : ws.results) {
        for (const auto& t : r.outputs) dets.insert(t.at(0).as_uint());
      }
    }
    return dets;
  };
  EXPECT_EQ(run(*single), run(*fleet));
  EXPECT_GT(single->emitter().total_tuples(), 0u);
  EXPECT_GT(fleet->emitter().total_tuples(), 0u);
}

}  // namespace
}  // namespace sonata::runtime
