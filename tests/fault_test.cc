// Deterministic fault injection and graceful degradation (DESIGN.md "Fault
// model & degradation"): the FaultSpec DSL, wire-fault determinism, the
// fleet watchdog/quarantine protocol, and the re-planning loop — including
// the acted-on auto-replan path that recovers from register pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "runtime/runtime.h"
#include "runtime/stream_processor.h"
#include "test_trace.h"
#include "util/time.h"

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

// Split a trace into per-window spans the way run_trace does, so tests can
// drive ingest/close by hand (deterministic ingest_at routing).
std::vector<std::span<const net::Packet>> window_slices(std::span<const net::Packet> trace,
                                                        util::Nanos window) {
  std::vector<std::span<const net::Packet>> out;
  std::size_t begin = 0;
  while (begin < trace.size()) {
    const std::uint64_t idx = util::window_index(trace[begin].ts, window);
    std::size_t end = begin;
    while (end < trace.size() && util::window_index(trace[end].ts, window) == idx) ++end;
    out.push_back(trace.subspan(begin, end - begin));
    begin = end;
  }
  return out;
}

void expect_identical_window(const WindowStats& a, const WindowStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.tuples_to_sp, b.tuples_to_sp);
  EXPECT_EQ(a.raw_mirror_packets, b.raw_mirror_packets);
  EXPECT_EQ(a.overflow_records, b.overflow_records);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t r = 0; r < a.results.size(); ++r) {
    EXPECT_EQ(a.results[r].qid, b.results[r].qid);
    EXPECT_EQ(a.results[r].outputs, b.results[r].outputs);
  }
  EXPECT_EQ(a.winners, b.winners);
}

// --- FaultSpec parsing ------------------------------------------------------

TEST(FaultSpec, ParsesEveryKeyAndRoundTrips) {
  std::string error;
  const auto spec = fault::parse_fault_spec(
      "seed=7,corrupt=0.01,truncate=0.02,drop=0.03,dup=0.04,reorder=0.05,"
      "slow_ns=1000,stall_switch=2,stall_from=1,stall_windows=3,watchdog_ms=50,"
      "shrink=16,hash_seed=0xbad5eed",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec->truncate_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec->drop_rate, 0.03);
  EXPECT_DOUBLE_EQ(spec->dup_rate, 0.04);
  EXPECT_DOUBLE_EQ(spec->reorder_rate, 0.05);
  EXPECT_EQ(spec->slow_ns, 1000u);
  EXPECT_EQ(spec->stall_switch, 2u);
  EXPECT_EQ(spec->stall_from_window, 1u);
  EXPECT_EQ(spec->stall_windows, 3u);
  EXPECT_EQ(spec->watchdog_ms, 50u);
  EXPECT_EQ(spec->register_shrink, 16u);
  EXPECT_EQ(spec->hash_seed, 0xbad5eedu);
  EXPECT_TRUE(spec->wire_active());
  EXPECT_TRUE(spec->any());

  // to_string round-trips through the parser.
  const auto again = fault::parse_fault_spec(spec->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_string(), spec->to_string());
}

TEST(FaultSpec, EmptySpecIsNoFault) {
  const auto spec = fault::parse_fault_spec("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->any());
  EXPECT_FALSE(spec->wire_active());
}

TEST(FaultSpec, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(fault::parse_fault_spec("bogus_key=1", &error).has_value());
  EXPECT_NE(error.find("unknown fault key"), std::string::npos);
  EXPECT_FALSE(fault::parse_fault_spec("corrupt", &error).has_value());
  EXPECT_FALSE(fault::parse_fault_spec("corrupt=1.5", &error).has_value());
  EXPECT_FALSE(fault::parse_fault_spec("drop=-0.1", &error).has_value());
  EXPECT_FALSE(fault::parse_fault_spec("seed=abc", &error).has_value());
  EXPECT_FALSE(fault::parse_fault_spec("shrink=0", &error).has_value());
  // Wire rates must leave room for plain delivery.
  EXPECT_FALSE(fault::parse_fault_spec("drop=0.6,dup=0.6", &error).has_value());
  // A stall with no watchdog would spin the window barrier forever.
  EXPECT_FALSE(fault::parse_fault_spec("stall_windows=1", &error).has_value());
  EXPECT_TRUE(fault::parse_fault_spec("stall_windows=1,watchdog_ms=100").has_value());
}

// --- wire faults ------------------------------------------------------------

TEST(FaultWire, InjectorDecisionsAreSeedDeterministic) {
  fault::FaultSpec spec;
  spec.seed = 99;
  spec.corrupt_rate = 0.2;
  spec.truncate_rate = 0.2;
  spec.drop_rate = 0.2;
  spec.dup_rate = 0.1;
  spec.reorder_rate = 0.1;
  fault::Injector a(spec);
  fault::Injector b(spec);
  for (int i = 0; i < 2000; ++i) {
    // Frame and report draws interleave on one stream, as a sender draws
    // them.
    const bool can_hold = i % 3 != 0;
    ASSERT_EQ(a.frame_fate(can_hold), b.frame_fate(can_hold)) << "frame " << i;
    std::vector<std::byte> ba(16, std::byte{0x5a});
    std::vector<std::byte> bb(16, std::byte{0x5a});
    const bool ma = a.mutate_report(ba);
    ASSERT_EQ(ma, b.mutate_report(bb)) << "report " << i;
    ASSERT_EQ(ba, bb) << "report " << i;
    ASSERT_EQ(ma, ba != std::vector<std::byte>(16, std::byte{0x5a})) << "report " << i;
  }
  EXPECT_EQ(a.account(), b.account());
  const fault::FaultAccount acc = a.account();
  EXPECT_GT(acc.corrupted, 0u);
  EXPECT_GT(acc.truncated, 0u);
  EXPECT_GT(acc.dropped, 0u);
  EXPECT_GT(acc.duplicated, 0u);
  EXPECT_GT(acc.reordered, 0u);
}

// A kMaxDP plan of two queries, whose queries outlive every engine that
// runs it. It mirrors few records per window (threshold crossings, not
// per-packet tuples); at `busy` thresholds most keys cross, so every shard
// of a many-switch Fleet sends records: one kRecords frame per window.
const Plan& maxdp_plan(bool busy = false) {
  struct Planned {
    std::vector<query::Query> qs;
    Plan plan;
    explicit Planned(bool busy) {
      queries::Thresholds th = scenario().thresholds;
      if (busy) th.newly_opened = th.ddos = 2;
      qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));
      qs.push_back(queries::make_ddos(th, util::seconds(3)));
      PlannerConfig cfg;
      cfg.mode = PlanMode::kMaxDP;
      plan = Planner(cfg).plan(qs, scenario().trace);
    }
  };
  static const Planned quiet(false);
  static const Planned loud(true);
  return busy ? loud.plan : quiet.plan;
}

TEST(FaultWire, RuntimeWireRunIsDeterministicAndExercisesDecoder) {
  const Plan& plan = maxdp_plan();

  // Report faults: rates are high because the plan mirrors few records
  // per window — the point is to hit both report bands, not to model a
  // realistic rate.
  fault::FaultSpec spec;
  spec.seed = 3;
  spec.corrupt_rate = 0.1;
  spec.truncate_rate = 0.1;

  auto run = [&] {
    Runtime rt(plan, 256, spec);
    return rt.run_trace(scenario().trace);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  fault::FaultAccount total;
  for (std::size_t w = 0; w < first.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_identical_window(first[w], second[w]);
    EXPECT_EQ(first[w].faults, second[w].faults);
    total.corrupted += first[w].faults.corrupted;
    total.truncated += first[w].faults.truncated;
    total.decode_failures += first[w].faults.decode_failures;
  }
  // A real run must have injected both report faults and driven at least
  // one mutated report into the decoder's reject path.
  EXPECT_GT(total.corrupted, 0u);
  EXPECT_GT(total.truncated, 0u);
  EXPECT_GT(total.decode_failures, 0u);
  // A truncated report never decodes; a bit flip may decode and route.
  EXPECT_GE(total.decode_failures, total.truncated);
  EXPECT_LE(total.decode_failures, total.corrupted + total.truncated);
}

// The frame-fault half: each shard sends one frame per window, so the run
// spreads the traffic over 32 switches to draw every frame band.
TEST(FaultWire, FleetFrameFaultsDrawEveryBandDeterministically) {
  const Plan& plan = maxdp_plan(true);
  fault::FaultSpec spec;
  spec.seed = 3;
  spec.drop_rate = 0.1;
  spec.dup_rate = 0.1;
  spec.reorder_rate = 0.25;

  auto run = [&] {
    Fleet fleet(plan, 32, 0, 256, spec);
    return fleet.run_trace(scenario().trace);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  fault::FaultAccount total;
  for (std::size_t w = 0; w < first.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_identical_window(first[w], second[w]);
    EXPECT_EQ(first[w].faults, second[w].faults);
    EXPECT_EQ(first[w].contribution_mask, second[w].contribution_mask);
    total.dropped += first[w].faults.dropped;
    total.duplicated += first[w].faults.duplicated;
    total.reordered += first[w].faults.reordered;
  }
  EXPECT_GT(total.dropped, 0u);
  EXPECT_GT(total.duplicated, 0u);
  EXPECT_GT(total.reordered, 0u);
}

// Duplicated and reordered frames lose nothing on either in-process
// driver: the reassembly restores each shard's frame order, so every
// window is the fault-free run's.
TEST(FaultWire, DupAndReorderAreRepairedOnFleetAndRuntime) {
  const Plan& plan = maxdp_plan(true);
  fault::FaultSpec spec;
  spec.seed = 5;
  spec.dup_rate = 0.2;
  spec.reorder_rate = 0.2;
  // Returns the dups and reorders injected.
  const auto check = [&](TelemetryEngine& faulty, TelemetryEngine& clean,
                         const std::string& label) {
    const auto got = faulty.run_trace(scenario().trace);
    const auto want = clean.run_trace(scenario().trace);
    EXPECT_EQ(got.size(), want.size()) << label;
    std::uint64_t injected = 0;
    for (std::size_t w = 0; w < got.size() && w < want.size(); ++w) {
      SCOPED_TRACE(label + " window " + std::to_string(w));
      expect_identical_window(got[w], want[w]);
      EXPECT_EQ(got[w].contribution_mask, want[w].contribution_mask);
      EXPECT_FALSE(got[w].partial);
      EXPECT_EQ(got[w].faults.output_affecting(), 0u);
      injected += got[w].faults.duplicated + got[w].faults.reordered;
    }
    return injected;
  };
  {
    Fleet faulty(plan, 8, 2, 256, spec);
    Fleet clean(plan, 8, 2, 256);
    EXPECT_GT(check(faulty, clean, "fleet"), 0u);
  }
  // One shard sends one frame per window: a sum over seeds draws both
  // bands.
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    spec.seed = seed;
    Runtime faulty(plan, 256, spec);
    Runtime clean(plan, 256);
    injected += check(faulty, clean, "runtime seed " + std::to_string(seed));
  }
  EXPECT_GT(injected, 0u);
}

// The in-process twin of DistributedE2E.UdpInjectedLossIsExactlyAccounted:
// a dropped frame closes its window partial with a shard bit cleared, the
// reassembly counts every dropped frame lost exactly once, and a window
// that dropped nothing is the fault-free run's.
TEST(FaultWire, DroppedFramesClosePartialWindowsWithExactLoss) {
  const Plan& plan = maxdp_plan(true);
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.2;
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  Fleet faulty(plan, 16, 0, 256, spec);
  const auto got = faulty.run_trace(scenario().trace);
  obs::set_enabled(false);
  Fleet clean(plan, 16, 0, 256);
  const auto want = clean.run_trace(scenario().trace);
  ASSERT_EQ(got.size(), want.size());
  std::uint64_t dropped = 0;
  std::size_t partial = 0;
  for (std::size_t w = 0; w < got.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    const std::uint64_t d = got[w].faults.dropped;
    const int cleared = 16 - std::popcount(got[w].contribution_mask);
    EXPECT_EQ(got[w].partial, d > 0);
    EXPECT_EQ(cleared > 0, d > 0);
    EXPECT_LE(static_cast<std::uint64_t>(cleared), d);
    if (d == 0) expect_identical_window(got[w], want[w]);
    dropped += d;
    partial += got[w].partial ? 1 : 0;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(partial, 0u);
  std::uint64_t lost = 0;
  for (const auto& c : obs::Registry::global().snapshot().counters) {
    if (c.name == "sonata_net_lost_total") lost = c.value;
  }
  EXPECT_EQ(lost, dropped);
}

// The close counts the records that route nowhere: a record of an unknown
// query, and one of a planned query at a level it does not run.
TEST(FaultWire, CloseCountsRecordsThatRouteNowhere) {
  const Plan& plan = maxdp_plan();
  StreamProcessor sp(plan);
  std::vector<pisa::EmitRecord> records(3);
  records[0].qid = 9999;
  records[1].qid = plan.queries.front().base->id();
  records[1].level = 7777;
  records[2].qid = 9999;  // a key report only names registers to poll
  records[2].kind = pisa::EmitRecord::Kind::kKeyReport;
  const ShardOutput shard[] = {{records, {}, nullptr}};
  WindowStats ws;
  EXPECT_EQ(sp.close_window(ws, shard, {}, {}), 2u);
  EXPECT_EQ(sp.close_window(ws, {}, {}, {}), 0u);
}

TEST(FaultWire, InjectedFaultsAreVisibleInMetricsSnapshot) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  // Counters only record while obs is on (the chaos gate runs with it on).
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  fault::FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.1;
  spec.corrupt_rate = 0.1;
  Runtime rt(plan, 256, spec);
  fault::FaultAccount sum;
  for (const auto& w : rt.run_trace(scenario().trace)) {
    sum.dropped += w.faults.dropped;
    sum.corrupted += w.faults.corrupted;
  }
  obs::set_enabled(false);
  ASSERT_GT(sum.dropped + sum.corrupted, 0u);

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  // Invariant 3 of the chaos gate: every injected fault is visible in the
  // metrics snapshot (per-window deltas sum to the counters).
  EXPECT_EQ(counter("sonata_fault_dropped_total"), sum.dropped);
  EXPECT_EQ(counter("sonata_fault_corrupted_total"), sum.corrupted);
}

TEST(FaultWire, ZeroSpecIsBitIdenticalToNoInjection) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);

  // A fleet with no faults() call must be bit-identical to one armed with
  // an explicitly default (all-zero) spec.
  Fleet plain(plan, 3, 2, 256);
  Fleet zeroed(plan, 3, 2, 256, fault::FaultSpec{});  // explicit default: no hooks armed

  const auto a = plain.run_trace(scenario().trace);
  const auto b = zeroed.run_trace(scenario().trace);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_identical_window(a[w], b[w]);
    EXPECT_EQ(b[w].faults.total(), 0u);
    EXPECT_FALSE(b[w].partial);
  }
}

// --- fleet watchdog / quarantine -------------------------------------------

TEST(FaultFleetWatchdog, StalledWorkerClosesWindowPartialThenRecovers) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  qs.push_back(queries::make_ddos(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;  // windows independent: no winner state to lose
  const Plan plan = Planner(cfg).plan(qs, scenario().trace);
  const auto slices = window_slices(scenario().trace, plan.window);
  ASSERT_GE(slices.size(), 3u);

  // Deterministic routing (alternating switches) so both runs shard the
  // traffic identically regardless of thread scheduling.
  auto run = [&](const fault::FaultSpec& faults) {
    Fleet fleet(plan, 2, 2, 64, faults);
    std::vector<WindowStats> out;
    for (const auto& slice : slices) {
      std::size_t k = 0;
      for (const auto& p : slice) fleet.ingest_at(k++ % 2, p);
      out.push_back(fleet.close_window());
    }
    return out;
  };

  const auto baseline = run(fault::FaultSpec{});
  for (const auto& w : baseline) {
    EXPECT_FALSE(w.partial);
    EXPECT_EQ(w.contribution_mask, 0b11u);
  }

  fault::FaultSpec spec;
  spec.stall_switch = 1;
  spec.stall_from_window = 1;
  spec.stall_windows = 1;
  spec.watchdog_ms = 1000;  // generous: sanitizer builds drain slowly
  const auto chaos = run(spec);
  ASSERT_EQ(chaos.size(), baseline.size());

  // Window 0 (before the stall): healthy and bit-identical.
  EXPECT_FALSE(chaos[0].partial);
  EXPECT_EQ(chaos[0].contribution_mask, 0b11u);
  expect_identical_window(chaos[0], baseline[0]);

  // Window 1 (stalled): the watchdog fires, switch 1 is quarantined, the
  // window closes partial with its contribution bit cleared and its
  // packets accounted as late (and possibly shed under ring backpressure).
  EXPECT_TRUE(chaos[1].partial);
  EXPECT_EQ(chaos[1].contribution_mask, 0b01u);
  EXPECT_GE(chaos[1].faults.watchdog_fires, 1u);
  EXPECT_GT(chaos[1].late_packets, 0u);
  EXPECT_EQ(chaos[1].shed_packets, chaos[1].faults.shed_packets);
  EXPECT_EQ(chaos[1].packets, baseline[1].packets);  // ingested, then lost

  // Window 2 (stall cleared): the quarantined worker re-synced — condemned
  // ring contents discarded, registers reset — so the fleet output is
  // bit-identical to the never-faulted baseline again.
  EXPECT_FALSE(chaos[2].partial);
  EXPECT_EQ(chaos[2].contribution_mask, 0b11u);
  expect_identical_window(chaos[2], baseline[2]);
}

// --- re-planning trigger + acted-on auto-replan ----------------------------

TEST(FaultReplan, StreakFiresAtExactlyConsecutiveWindows) {
  const auto& sc = scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig bad;
  bad.mode = PlanMode::kMaxDP;
  bad.register_headroom = 0.02;
  bad.min_register_entries = 16;
  bad.register_depth = 1;
  const Plan plan = Planner(bad).plan(qs, sc.trace);
  const auto slices = window_slices(sc.trace, plan.window);
  ASSERT_GE(slices.size(), 4u);

  Runtime rt(plan);
  rt.set_replan_policy({.overflow_threshold = 0.01, .consecutive_windows = 3});
  int windows_closed = 0;
  // Only the 4 dense windows: the trace's sparse tail slice would not
  // overflow and is irrelevant to the streak's firing edge.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto w = rt.process_window(slices[i]);
    ++windows_closed;
    // Validate the fixture as we go: every window must itself overflow
    // past the threshold, so the streak is unbroken and the trigger must
    // fire at exactly window 3 — not before (regression: an off-by-one or
    // a drop-inflated denominator fires early/late).
    const double fraction =
        static_cast<double>(w.overflow_records) / static_cast<double>(w.packets);
    ASSERT_GT(fraction, 0.01) << "fixture: window " << w.window_index << " must overflow";
    EXPECT_EQ(rt.replan_recommended(), windows_closed >= 3)
        << "after " << windows_closed << " windows";
  }
}

TEST(FaultReplan, MitigationDropsDoNotDeflateOverflowFraction) {
  // Regression for the trigger's denominator: mitigation-dropped packets
  // never reach the registers, so the overflow fraction must be computed
  // over processed packets. With the old packet-count denominator a drop
  // storm (exactly when mitigation is winning) deflated the fraction and
  // silenced the trigger.
  // Fixture: a well-sized plan (so mitigation detects and silences the SYN
  // flood normally) under register_shrink pressure (so every window keeps
  // overflowing). Once mitigation kicks in, the flood stops reaching the
  // registers: the stale fraction's denominator still counts those dropped
  // packets, the corrected one does not.
  const auto& sc = scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);
  fault::FaultSpec pressure;
  pressure.register_shrink = 32;

  // Probe pass: measure per-window overflow/packet/drop counts (the run is
  // deterministic, so the second pass sees identical windows).
  std::vector<WindowStats> probe;
  {
    Runtime rt(plan, 1, pressure);
    rt.enable_mitigation({.qid = 1, .output_column = "dIP", .packet_field = "dIP"});
    probe = rt.run_trace(sc.trace);
  }
  // The trigger needs >= 2 CONSECUTIVE windows above threshold, so what
  // discriminates the denominators is the best consecutive pair each can
  // sustain: pick a threshold above every stale pair (the old code's streak
  // can never reach 2) but below some corrected pair (the fixed code's
  // does). corrected >= stale always, so a strict gap between the two pair
  // maxima proves the pair that clears it is mitigation-dropped.
  const auto stale_frac = [](const WindowStats& w) {
    if (w.packets == 0) return 0.0;
    return static_cast<double>(w.overflow_records) / static_cast<double>(w.packets);
  };
  const auto corrected_frac = [](const WindowStats& w) {
    const std::uint64_t processed = w.packets - std::min(w.packets, w.dropped_packets);
    if (processed == 0) return 0.0;
    return static_cast<double>(w.overflow_records) / static_cast<double>(processed);
  };
  double stale_pair = 0.0, corrected_pair = 0.0;
  for (std::size_t i = 1; i < probe.size(); ++i) {
    stale_pair = std::max(stale_pair, std::min(stale_frac(probe[i - 1]), stale_frac(probe[i])));
    corrected_pair = std::max(
        corrected_pair, std::min(corrected_frac(probe[i - 1]), corrected_frac(probe[i])));
  }
  ASSERT_LT(stale_pair, corrected_pair)
      << "fixture: mitigation drops must separate the two denominators";
  const double threshold = (stale_pair + corrected_pair) / 2.0;

  Runtime rt(plan, 1, pressure);
  rt.enable_mitigation({.qid = 1, .output_column = "dIP", .packet_field = "dIP"});
  rt.set_replan_policy({.overflow_threshold = threshold, .consecutive_windows = 2});
  (void)rt.run_trace(sc.trace);
  // The corrected fraction exceeds the threshold in >= 2 consecutive
  // windows; the stale one never does in any window — so this fires only
  // with the processed-packet denominator.
  EXPECT_TRUE(rt.replan_recommended());
}

TEST(FaultReplan, AutoReplanRecoversFromRegisterPressure) {
  const auto& sc = scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kMaxDP;
  const Plan plan = Planner(cfg).plan(qs, sc.trace);
  const auto slices = window_slices(sc.trace, plan.window);
  ASSERT_GE(slices.size(), 4u);

  // Register pressure: install the (well-sized) plan with registers shrunk
  // 64x, forcing a collision-overflow storm the trigger must detect and
  // the auto-replan must recover from. One switch, and 4 switches on 2
  // workers, whose windows, swaps and replans equal the inline fleet's.
  fault::FaultSpec faults;
  faults.register_shrink = 64;
  std::vector<std::vector<WindowStats>> runs;
  for (const auto& [switches, workers] : {std::pair{1, 0}, {4, 2}, {4, 0}}) {
    SCOPED_TRACE(std::to_string(switches) + " switches, " + std::to_string(workers) + " workers");
    std::unique_ptr<Fleet> engine =
        switches == 1 ? std::make_unique<Runtime>(plan, 256, faults)
                      : std::make_unique<Fleet>(plan, 4, workers, 256, faults);
    engine->set_replan_policy({.overflow_threshold = 0.01, .consecutive_windows = 2});
    Runtime::AutoReplanConfig ar;
    ar.queries = &qs;
    ar.planner = cfg;
    ar.history_windows = 2;
    engine->enable_auto_replan(ar);

    auto& windows = runs.emplace_back();
    for (const auto& slice : slices) windows.push_back(engine->process_window(slice));

    EXPECT_EQ(engine->replans_performed(), 1u);
    std::optional<std::size_t> swap_window;
    for (const auto& w : windows) {
      if (w.plan_swapped && !swap_window) swap_window = w.window_index;
    }
    ASSERT_TRUE(swap_window.has_value());
    // The streak policy needs 2 overflowing windows before acting.
    EXPECT_EQ(*swap_window, 1u);
    // Post-swap windows run on right-sized registers: the overflow storm the
    // shrunken install caused must be gone (same traffic, same queries).
    const auto frac = [](const WindowStats& w) {
      return static_cast<double>(w.overflow_records) / static_cast<double>(w.packets);
    };
    ASSERT_GT(frac(windows[*swap_window]), 0.01);
    for (std::size_t w = *swap_window + 1; w < windows.size(); ++w) {
      EXPECT_LT(frac(windows[w]), 0.01) << "window " << w << " after the swap";
    }
  }

  const auto& threaded = runs[1];
  const auto& want = runs[2];
  ASSERT_EQ(threaded.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_identical_window(threaded[w], want[w]);
    EXPECT_EQ(threaded[w].plan_swapped, want[w].plan_swapped);
    EXPECT_EQ(threaded[w].control_update_millis, want[w].control_update_millis);
  }
}

}  // namespace
}  // namespace sonata::runtime
