// Parallel fleet execution: worker threads must be invisible in the
// results. The fleet buffers each switch's mirrored records per window and
// merges them at the barrier in switch order, so every window's outputs
// and tuple accounting must be bit-identical for any worker-thread count
// (including the inline threads=0 path).
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "obs/metrics.h"
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

// Every deterministic field of two windows: all of WindowStats but the
// phase clocks, and of the fault account all but the slowdowns (runs
// delayed by slow_ns: how packets were grouped into runs, not what ran).
// Outputs compare in output order (not as a set): any nondeterministic
// interleaving shows up as a mismatch here.
void expect_same_window(const WindowStats& a, const WindowStats& b) {
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.tuples_to_sp, b.tuples_to_sp);
  EXPECT_EQ(a.raw_mirror_packets, b.raw_mirror_packets);
  EXPECT_EQ(a.overflow_records, b.overflow_records);
  EXPECT_EQ(a.control_update_millis, b.control_update_millis);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t r = 0; r < a.results.size(); ++r) {
    EXPECT_EQ(a.results[r].qid, b.results[r].qid);
    EXPECT_EQ(a.results[r].name, b.results[r].name);
    EXPECT_EQ(a.results[r].outputs, b.results[r].outputs);
  }
  EXPECT_EQ(a.winners, b.winners);
  EXPECT_EQ(a.contribution_mask, b.contribution_mask);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.late_packets, b.late_packets);
  EXPECT_EQ(a.shed_packets, b.shed_packets);
  EXPECT_EQ(a.plan_swapped, b.plan_swapped);
  EXPECT_EQ(a.plan_version, b.plan_version);
  fault::FaultAccount fa = a.faults, fb = b.faults;
  fa.slowdowns = fb.slowdowns = 0;
  EXPECT_EQ(fa, fb);
}

void expect_identical_windows(const std::vector<WindowStats>& a,
                              const std::vector<WindowStats>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE(label + " window " + std::to_string(w));
    expect_same_window(a[w], b[w]);
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

std::uint64_t driver_runs_total() {
  return obs::Registry::global().counter("sonata_fleet_driver_runs_total").value();
}

// Ring-full events so far on switches 0..shards-1.
std::uint64_t ring_full_total(std::size_t shards) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::pair<std::string_view, std::string> labels[] = {{"sw", std::to_string(i)}};
    total += obs::Registry::global()
                 .counter(obs::labeled("sonata_fleet_stalls_total", labels))
                 .value();
  }
  return total;
}

TEST(FleetParallel, DriverDrainedShardsMatchInlineFleet) {
  // The driver drains runs of any shard its worker has not claimed, while a
  // ring is full and at the barrier. Rings fill (batch 1 by itself, larger
  // batches behind slowed runs), so shards are drained by both threads in
  // turn; each window must still equal the inline fleet's, and so must the
  // emitter's per-query tallies and every switch's filter updates (the
  // installs of refinement winners).
  const auto qs = queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  const Plan plan = Planner(PlannerConfig{}).plan(qs, scenario().trace);
  fault::FaultSpec slow;
  slow.slow_ns = 20'000;

  obs::set_enabled(true);  // the driver-runs counter records only with obs on
  for (const std::size_t shards : {4u, 8u}) {
    for (const std::size_t batch : {1u, 7u, 256u}) {
      Fleet inline_fleet(plan, shards, 0, batch);
      const auto want = inline_fleet.run_trace(scenario().trace);
      ASSERT_FALSE(want.empty());
      std::uint64_t updates = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        updates += inline_fleet.data_plane(i).stats().filter_entry_updates;
      }
      ASSERT_GT(updates, 0u) << "the plan must install refinement winners";

      for (const std::size_t workers : {1u, 2u}) {
        const std::string label = std::to_string(shards) + " shards, batch " +
                                  std::to_string(batch) + ", " + std::to_string(workers) +
                                  " workers";
        SCOPED_TRACE(label);
        const std::uint64_t runs_before = driver_runs_total();
        const std::uint64_t full_before = ring_full_total(shards);
        Fleet fleet(plan, shards, workers, batch, batch == 1 ? fault::FaultSpec{} : slow);
        const auto got = fleet.run_trace(scenario().trace);
        EXPECT_GT(ring_full_total(shards), full_before);
        EXPECT_GT(driver_runs_total(), runs_before);

        expect_identical_windows(want, got, label);
        const auto& got_q = fleet.emitter().per_query();
        const auto& want_q = inline_fleet.emitter().per_query();
        ASSERT_EQ(got_q.size(), want_q.size());
        for (std::size_t q = 0; q < want_q.size(); ++q) {
          EXPECT_EQ(got_q[q].first, want_q[q].first);
          EXPECT_EQ(got_q[q].second.tuples, want_q[q].second.tuples);
          EXPECT_EQ(got_q[q].second.overflows, want_q[q].second.overflows);
        }
        for (std::size_t i = 0; i < shards; ++i) {
          EXPECT_EQ(fleet.data_plane(i).stats().filter_entry_updates,
                    inline_fleet.data_plane(i).stats().filter_entry_updates)
              << "switch " << i;
        }
      }
    }
  }
  obs::set_enabled(false);
}

TEST(FleetParallel, DriverNeverDrainsAStalledShard) {
  // A stall blocks every thread from the shard, the driver included: the
  // watchdog quarantines it as when only its worker could drain it. The
  // window then holds exactly the other shards' work, every packet routed
  // to the stalled shard counts late or shed, and the shard's resync makes
  // the next window whole again.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  qs.push_back(queries::make_ddos(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;  // windows independent: no winner state to lose
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kStalled = 1;

  std::vector<std::vector<net::Packet>> slices;
  for (const auto& p : scenario().trace) {
    const std::uint64_t w = util::window_index(p.ts, plan.window);
    if (slices.empty() || util::window_index(slices.back().front().ts, plan.window) != w) {
      slices.emplace_back();
    }
    slices.back().push_back(p);
  }
  ASSERT_GE(slices.size(), 3u);

  // The reference is an inline fleet; in the stalled window it never sees
  // the stalled shard's packets.
  Fleet reference(plan, kShards, 0, 64);
  fault::FaultSpec spec;
  spec.stall_switch = kStalled;
  spec.stall_from_window = 1;
  spec.stall_windows = 1;
  spec.watchdog_ms = 1000;  // generous: sanitizer builds drain slowly
  Fleet fleet(plan, kShards, 2, 64, spec);
  for (std::size_t w = 0; w < slices.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    std::uint64_t stalled_packets = 0;
    for (const auto& p : slices[w]) {
      fleet.ingest(p);
      if (w == 1 && route_to_shard(p, kShards) == kStalled) {
        ++stalled_packets;
      } else {
        reference.ingest(p);
      }
    }
    const WindowStats got = fleet.close_window();
    const WindowStats want = reference.close_window();
    EXPECT_EQ(got.tuples_to_sp, want.tuples_to_sp);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t r = 0; r < want.results.size(); ++r) {
      EXPECT_EQ(got.results[r].outputs, want.results[r].outputs);
    }
    EXPECT_EQ(got.winners, want.winners);
    if (w == 1) {
      ASSERT_GT(stalled_packets, 0u);
      EXPECT_TRUE(got.partial);
      EXPECT_EQ(got.contribution_mask, 0b1111u & ~(1u << kStalled));
      EXPECT_EQ(got.faults.watchdog_fires, 1u);
      EXPECT_EQ(got.late_packets + got.shed_packets, stalled_packets);
      EXPECT_EQ(got.packets, want.packets + stalled_packets);
    } else {
      EXPECT_FALSE(got.partial);
      EXPECT_EQ(got.contribution_mask, 0b1111u);
      EXPECT_EQ(got.late_packets + got.shed_packets, 0u);
      EXPECT_EQ(got.packets, want.packets);
    }
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

  // Every topology is a Fleet; {1, 0} is the single-switch Runtime's shape.
  const auto single = build(1, 0);
  const auto* single_fleet = dynamic_cast<Fleet*>(single.get());
  ASSERT_NE(single_fleet, nullptr);
  EXPECT_EQ(single_fleet->size(), 1u);
  EXPECT_EQ(single_fleet->worker_threads(), 0u);
  EXPECT_EQ(single->data_plane_count(), 1u);

  const auto fleet = build(4, 2);
  const auto* multi_fleet = dynamic_cast<Fleet*>(fleet.get());
  ASSERT_NE(multi_fleet, nullptr);
  EXPECT_EQ(multi_fleet->worker_threads(), 2u);
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
