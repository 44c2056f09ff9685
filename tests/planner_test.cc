#include <gtest/gtest.h>

#include "planner/estimator.h"
#include "planner/install.h"
#include "planner/planner.h"
#include "planner/refine.h"
#include "queries/catalog.h"
#include "test_trace.h"
#include "util/ip.h"

namespace sonata::planner {
namespace {

using query::OpKind;
using query::Tuple;
using query::Value;
using util::ipv4;

// --- refinement key tracing -------------------------------------------------

TEST(Refine, TraceSimpleQuery) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = find_refinement_key(*q.sources()[0]);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->key_column, "dIP");
  EXPECT_EQ(key->source_field, "dIP");
  EXPECT_FALSE(key->is_dns);
  ASSERT_TRUE(key->intro_map_op);
  EXPECT_EQ(*key->intro_map_op, 1u);
}

TEST(Refine, TraceThroughRename) {
  // SYN-flood's synack sub-query maps dIP from the packet's *source* field.
  queries::Thresholds th;
  auto q = queries::make_syn_flood(th, util::seconds(3));
  const auto sources = q.sources();
  ASSERT_EQ(sources.size(), 3u);
  const auto key = find_refinement_key(*sources[1]);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->key_column, "dIP");
  EXPECT_EQ(key->source_field, "sIP");
}

TEST(Refine, TraceDnsKey) {
  queries::Thresholds th;
  auto q = queries::make_fast_flux(th, util::seconds(3));
  const auto key = find_refinement_key(*q.sources()[0]);
  ASSERT_TRUE(key);
  EXPECT_TRUE(key->is_dns);
  EXPECT_EQ(key->source_field, "dns.rr.name");
  EXPECT_EQ(key->finest_level(), kFinestDnsLevel);
}

TEST(Refine, RawPacketSourceHasNoStatefulKey) {
  queries::Thresholds th;
  auto q = queries::make_zorro(th, util::seconds(3));
  const auto sources = q.sources();
  ASSERT_EQ(sources.size(), 2u);
  // The left (raw) side has no reduce: no stateful key of its own...
  EXPECT_FALSE(find_refinement_key(*sources[0]));
  // ...but traces the join key to a hierarchical field.
  const auto traced = trace_refinement_key(*sources[0], "dIP");
  ASSERT_TRUE(traced);
  EXPECT_EQ(traced->source_field, "dIP");
  EXPECT_FALSE(traced->intro_map_op);
}

TEST(Refine, AggregateColumnDoesNotTrace) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  EXPECT_FALSE(trace_refinement_key(*q.sources()[0], "count"));
}

// --- query augmentation ------------------------------------------------------

TEST(Refine, RefinedNodeShape) {
  queries::Thresholds th;
  th.newly_opened = 100;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);

  RefineOptions opts;
  opts.level = 16;
  opts.prev_level = 8;
  opts.filter_table_name = "tbl";
  opts.relaxed_threshold = 70;
  const auto node = make_refined_node(*q.sources()[0], key, opts);

  // filter_in + original 4 ops.
  ASSERT_EQ(node->ops.size(), 5u);
  EXPECT_EQ(node->ops[0].kind, OpKind::kFilterIn);
  EXPECT_EQ(node->ops[0].table_name, "tbl");
  // The key map projection is coarsened to /16.
  const auto& proj = node->ops[2].projections[0];
  EXPECT_EQ(proj.expr->kind, query::Expr::Kind::kIpPrefix);
  EXPECT_EQ(proj.expr->level, 16);
  // Relaxed threshold installed.
  EXPECT_EQ(node->ops[4].predicate->rhs->constant.as_uint(), 70u);
  // Schemas recomputed.
  EXPECT_EQ(node->schemas.size(), node->ops.size() + 1);
}

TEST(Refine, FinestLevelIsIdentity) {
  queries::Thresholds th;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);
  RefineOptions opts;
  opts.level = kFinestIpLevel;
  const auto node = make_refined_node(*q.sources()[0], key, opts);
  ASSERT_EQ(node->ops.size(), q.sources()[0]->ops.size());
  EXPECT_EQ(node->ops[1].projections[0].expr->kind, query::Expr::Kind::kCol);
}

TEST(Refine, RawSourceGetsInPlaceCoarseningMap) {
  queries::Thresholds th;
  auto q = queries::make_zorro(th, util::seconds(3));
  const auto key = *trace_refinement_key(*q.sources()[0], "dIP");
  RefineOptions opts;
  opts.level = 24;
  const auto node = make_refined_node(*q.sources()[0], key, opts);
  // Original 1 op (telnet filter) + appended in-place map.
  ASSERT_EQ(node->ops.size(), 2u);
  EXPECT_EQ(node->ops[1].kind, OpKind::kMap);
  // Schema preserved (payload still present for the downstream keyword scan).
  EXPECT_TRUE(node->output_schema().index_of("payload"));
  EXPECT_EQ(node->output_schema().size(), q.sources()[0]->output_schema().size());
}

TEST(Refine, LevelQueryJoinsAtCoarseGranularity) {
  queries::Thresholds th;
  th.slowloris_bytes = 50;
  th.slowloris_ratio = 100;
  auto q = queries::make_slowloris(th, util::seconds(3));
  std::vector<RefinementKey> keys;
  for (const auto* src : q.sources()) keys.push_back(*find_refinement_key(*src));
  const auto lq = make_level_query(q, keys, 8, {std::nullopt, std::nullopt});
  // Output key column is still named dIP and the query validates.
  EXPECT_TRUE(lq.root()->output_schema().index_of("dIP"));
}

// --- instrumented runs -------------------------------------------------------

TEST(Estimator, InstrumentedCountsMatchSemantics) {
  queries::Thresholds th;
  th.newly_opened = 2;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));

  std::vector<Tuple> tuples;
  auto add_syn = [&](std::uint32_t dst, int n) {
    for (int i = 0; i < n; ++i) {
      tuples.push_back(query::materialize_tuple(
          net::Packet::tcp(0, ipv4(1, 1, 1, std::uint32_t(i + 1)), dst, 1, 80,
                           net::tcp_flags::kSyn, 40)));
    }
  };
  add_syn(ipv4(9, 9, 9, 9), 5);  // passes Th=2
  add_syn(ipv4(8, 8, 8, 8), 1);  // below Th
  tuples.push_back(query::materialize_tuple(
      net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kAck, 40)));  // dropped by filter

  const auto res = run_instrumented(*q.sources()[0], tuples, nullptr);
  ASSERT_EQ(res.n_after.size(), 5u);
  EXPECT_EQ(res.n_after[0], 7u);  // every packet
  EXPECT_EQ(res.n_after[1], 6u);  // past the SYN filter
  EXPECT_EQ(res.n_after[2], 6u);  // map keeps the count
  EXPECT_EQ(res.n_after[3], 2u);  // one report per distinct key
  EXPECT_EQ(res.n_after[4], 1u);  // only one key crosses the threshold
  EXPECT_EQ(res.stateful_keys.at(2), 2u);
}

TEST(Estimator, InstrumentedFrontFilterRestrictsTraffic) {
  queries::Thresholds th;
  th.newly_opened = 1;
  auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  const auto key = *find_refinement_key(*q.sources()[0]);
  RefineOptions opts;
  opts.level = 32;
  opts.prev_level = 8;
  opts.filter_table_name = "tbl";
  const auto node = make_refined_node(*q.sources()[0], key, opts);

  std::vector<Tuple> tuples;
  for (int i = 0; i < 4; ++i) {
    tuples.push_back(query::materialize_tuple(net::Packet::tcp(
        0, 1, ipv4(9, 0, 0, 1), 1, 2, net::tcp_flags::kSyn, 40)));
    tuples.push_back(query::materialize_tuple(net::Packet::tcp(
        0, 1, ipv4(10, 0, 0, 1), 1, 2, net::tcp_flags::kSyn, 40)));
  }
  const std::vector<Tuple> winners{Tuple{{Value{std::uint64_t{ipv4(9, 0, 0, 0)}}}}};
  const auto res = run_instrumented(*node, tuples, &winners);
  EXPECT_EQ(res.n_after[1], 4u);  // only the 9/8 packets pass the filter_in
}

// --- full estimator ----------------------------------------------------------

class EstimatorTest : public ::testing::Test {
 protected:
  static const testing::Scenario& scenario() {
    static const testing::Scenario sc = testing::make_scenario();
    return sc;
  }
  static const std::vector<TupleWindow>& windows() {
    static const std::vector<TupleWindow> w =
        materialize_windows(scenario().trace, util::seconds(3));
    return w;
  }
};

TEST_F(EstimatorTest, Query1Refinable) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {1, 2});
  ASSERT_TRUE(est.refinable());
  EXPECT_EQ(est.levels(), (std::vector<int>{8, 16, 24, 32}));
}

TEST_F(EstimatorTest, CostsDecreaseAlongTheChain) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  const auto& head = est.transition(0, kNoPrevLevel, 32);
  // n_after is non-increasing in the partition point.
  for (std::size_t k = 1; k < head.n_after.size(); ++k) {
    EXPECT_LE(head.n_after[k], head.n_after[k - 1]) << k;
  }
  // Executing /32 after /8 winners processes less than from scratch (the
  // scenario injects several SYN-heavy attacks, so multiple /8s win).
  const auto& refined = est.transition(0, 8, 32);
  EXPECT_LT(refined.n_after[1], head.n_after[1]);
  EXPECT_LT(refined.n_after[1], head.n_after[0] / 4);
}

TEST_F(EstimatorTest, RelaxedThresholdsAreRelaxedButPositive) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  // Margin 1.0: the relaxed threshold is exactly the training minimum - 1.
  CostEstimator est(q, windows(), {8, 16, 24}, {}, /*relax_margin=*/1.0);
  const auto th8 = est.relaxed_threshold(0, 8);
  ASSERT_TRUE(th8);
  // The /8 aggregate of the flood victim is at least the victim's own
  // count, so the unscaled relaxed threshold exceeds the original.
  EXPECT_GE(*th8, scenario().thresholds.newly_opened);
  // Finest level keeps the original threshold.
  EXPECT_FALSE(est.relaxed_threshold(0, 32));

  // The default margin (0.5) halves the bound — more conservative.
  CostEstimator margin_est(q, windows(), {8, 16, 24}, {});
  const auto th8m = margin_est.relaxed_threshold(0, 8);
  ASSERT_TRUE(th8m);
  EXPECT_LT(*th8m, *th8);
  EXPECT_GT(*th8m, 0u);
}

TEST_F(EstimatorTest, WinnersContainVictimPrefix) {
  auto q = queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  // Window 1 (t in [3,6)) has steady flood traffic.
  const auto& win = est.winners(8, 1);
  bool found = false;
  for (const auto& w : win) {
    found = found || w.at(0).as_uint() == util::ipv4_prefix(scenario().syn_victim, 8);
  }
  EXPECT_TRUE(found);
  // Winners are few: refinement zooms in.
  EXPECT_LT(win.size(), 40u);
}

TEST_F(EstimatorTest, NonRefinableQueryHasSingleLevel) {
  auto q = queries::make_syn_flood(scenario().thresholds, util::seconds(3));
  CostEstimator est(q, windows(), {8, 16, 24}, {});
  EXPECT_FALSE(est.refinable());
  EXPECT_EQ(est.levels(), (std::vector<int>{32}));
  // Transition still works (partitioning without refinement).
  const auto& t = est.transition(0, kNoPrevLevel, 32);
  EXPECT_GT(t.n_after[0], 0u);
}

// --- planner -----------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  static const testing::Scenario& scenario() {
    static const testing::Scenario sc = testing::make_scenario();
    return sc;
  }
  static const std::vector<TupleWindow>& windows() {
    static const std::vector<TupleWindow> w =
        materialize_windows(scenario().trace, util::seconds(3));
    return w;
  }
  static std::vector<query::Query> queries() {
    return queries::evaluation_queries(scenario().thresholds, util::seconds(3));
  }
  static Plan plan_with(PlanMode mode, const std::vector<query::Query>& qs) {
    PlannerConfig cfg;
    cfg.mode = mode;
    Planner planner(cfg);
    return planner.plan_windows(qs, windows());
  }
};

TEST_F(PlannerTest, AllSpMirrorsEverything) {
  const auto qs = queries();
  const Plan plan = plan_with(PlanMode::kAllSP, qs);
  EXPECT_TRUE(plan.raw_mirror);
  EXPECT_EQ(plan.est_total_tuples, plan.est_window_packets);
  for (const auto& pq : plan.queries) {
    for (const auto& p : pq.pipelines) EXPECT_EQ(p.partition, 0u);
  }
}

TEST_F(PlannerTest, MaxDpPutsWorkOnTheSwitch) {
  const auto qs = queries();
  const Plan plan = plan_with(PlanMode::kMaxDP, qs);
  ASSERT_TRUE(plan.layout.feasible);
  std::size_t installed = 0;
  for (const auto& pq : plan.queries) {
    EXPECT_EQ(pq.chain.size(), 1u);  // no refinement
    for (const auto& p : pq.pipelines) installed += p.partition > 0 ? 1 : 0;
  }
  EXPECT_GT(installed, 0u);
}

TEST_F(PlannerTest, SonataBeatsBaselines) {
  const auto qs = queries();
  const Plan sonata = plan_with(PlanMode::kSonata, qs);
  const Plan all_sp = plan_with(PlanMode::kAllSP, qs);
  const Plan filter_dp = plan_with(PlanMode::kFilterDP, qs);
  const Plan max_dp = plan_with(PlanMode::kMaxDP, qs);
  EXPECT_LE(sonata.est_total_tuples, max_dp.est_total_tuples);
  EXPECT_LE(sonata.est_total_tuples, filter_dp.est_total_tuples);
  // On this deliberately small, attack-heavy test trace the gap is a few x;
  // the paper-scale gap (orders of magnitude) is reproduced by the Figure 7
  // benchmark, which runs a much larger trace.
  EXPECT_LT(sonata.est_total_tuples, all_sp.est_total_tuples / 3);
}

TEST_F(PlannerTest, SonataRefinesWhenRegistersAreScarce) {
  // With abundant register memory the whole /32 reduce fits and refinement
  // is pointless (paper §3.3's example: 2,500 Kb < B). Starve the register
  // memory so the full-granularity reduce no longer fits: Sonata must now
  // zoom in through a coarser level instead of falling back to streaming.
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));

  PlannerConfig roomy;
  roomy.mode = PlanMode::kSonata;
  const Plan roomy_plan = Planner(roomy).plan_windows(qs, windows());
  ASSERT_EQ(roomy_plan.queries.size(), 1u);
  EXPECT_EQ(roomy_plan.queries[0].chain.size(), 1u);  // no refinement needed

  PlannerConfig scarce = roomy;
  scarce.switch_config.max_bits_per_register = 48 * 1024;
  scarce.switch_config.register_bits_per_stage = 48 * 1024;
  const Plan scarce_plan = Planner(scarce).plan_windows(qs, windows());
  ASSERT_EQ(scarce_plan.queries.size(), 1u);
  EXPECT_GE(scarce_plan.queries[0].chain.size(), 2u);
  EXPECT_TRUE(scarce_plan.layout.feasible);
  // And refinement keeps the load way below the streaming fallback.
  PlannerConfig scarce_maxdp = scarce;
  scarce_maxdp.mode = PlanMode::kMaxDP;
  const Plan fallback = Planner(scarce_maxdp).plan_windows(qs, windows());
  EXPECT_LT(scarce_plan.est_total_tuples, fallback.est_total_tuples / 2);
}

TEST_F(PlannerTest, FixRefUsesAllLevels) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  const Plan plan = plan_with(PlanMode::kFixRef, qs);
  EXPECT_EQ(plan.queries[0].chain, (std::vector<int>{8, 16, 24, 32}));
}

TEST_F(PlannerTest, TinySwitchForcesWorkToStreamProcessor) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));

  PlannerConfig small;
  small.mode = PlanMode::kMaxDP;
  small.switch_config.stages = 2;  // not enough for filter+map+idx+registers
  const Plan plan = Planner(small).plan_windows(qs, windows());
  PlannerConfig big;
  big.mode = PlanMode::kMaxDP;
  const Plan big_plan = Planner(big).plan_windows(qs, windows());
  EXPECT_GT(plan.est_total_tuples, big_plan.est_total_tuples);
}

TEST_F(PlannerTest, PlanRespectsDelayBound) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(scenario().thresholds, util::seconds(3)));
  PlannerConfig cfg;
  cfg.mode = PlanMode::kSonata;
  cfg.max_delay_windows = 2;
  const Plan plan = Planner(cfg).plan_windows(qs, windows());
  EXPECT_LE(plan.queries[0].chain.size(), 2u);
}

TEST_F(PlannerTest, ExecQueriesValidatePerLevel) {
  std::vector<query::Query> qs;
  qs.push_back(queries::make_slowloris(scenario().thresholds, util::seconds(3)));
  const Plan plan = plan_with(PlanMode::kSonata, qs);
  for (const auto& pq : plan.queries) {
    EXPECT_EQ(pq.exec_queries.size(), pq.chain.size());
    for (const auto& [level, q] : pq.exec_queries) {
      EXPECT_TRUE(q.root()->output_schema().index_of("dIP")) << level;
    }
  }
}

// --- install order independence -------------------------------------------

TEST(OverflowModel, EstimateDoesNotDependOnCallOrder) {
  // Key counts that share one 512-wide bucket must each get their own
  // estimate, whichever was priced first.
  const std::vector<std::uint64_t> ks = {12288, 12346, 12354, 12799};
  std::vector<std::uint64_t> forward;
  for (const std::uint64_t k : ks) forward.push_back(estimate_overflow_keys(k, 4096, 2));
  std::vector<std::uint64_t> backward(ks.size());
  for (std::size_t i = ks.size(); i-- > 0;) backward[i] = estimate_overflow_keys(ks[i], 4096, 2);
  EXPECT_EQ(forward, backward);
  EXPECT_NE(forward[1], forward[2]);  // 12346 and 12354 differ
  EXPECT_GT(forward[0], 12288u - 2u * 4096u);  // more keys than slots: some overflow
}

TEST_F(PlannerTest, InstallsDoNotDependOnInstallHistory) {
  // Scarce register memory caps the registers, so installs price overflow.
  PlannerConfig cfg;
  cfg.switch_config.max_bits_per_register = 48 * 1024;
  cfg.switch_config.register_bits_per_stage = 48 * 1024;
  const auto qs = queries();
  const std::uint64_t packets = median_window_packets(windows());
  for (const auto& q : qs) {
    ChainInstaller forward(cfg, q, windows(), packets);
    ChainInstaller backward(cfg, q, windows(), packets);
    const auto chains = forward.chains();
    std::vector<std::optional<Installed>> got(chains.size());
    for (std::size_t i = 0; i < chains.size(); ++i) {
      pisa::StagePacker packer(cfg.switch_config);
      got[i] = forward.install(chains[i], packer, false, false);
    }
    for (std::size_t i = chains.size(); i-- > 0;) {
      pisa::StagePacker packer(cfg.switch_config);
      const auto inst = backward.install(chains[i], packer, false, false);
      ASSERT_TRUE(inst && got[i]) << q.name();
      EXPECT_EQ(inst->n, got[i]->n) << q.name() << " chain " << i;
      ASSERT_EQ(inst->pq.pipelines.size(), got[i]->pq.pipelines.size());
      for (std::size_t p = 0; p < inst->pq.pipelines.size(); ++p) {
        EXPECT_EQ(inst->pq.pipelines[p].partition, got[i]->pq.pipelines[p].partition);
        EXPECT_EQ(inst->pq.pipelines[p].est_tuples, got[i]->pq.pipelines[p].est_tuples);
      }
    }
  }
}

}  // namespace
}  // namespace sonata::planner
