// Tests for the dynamic query control plane (DESIGN.md "Query control
// plane"): window-barrier submit/withdraw bit-identity against a static
// engine, structured admission diagnostics with per-tenant budgets, the
// incremental planner's cost-equality guarantee against from-scratch
// branch-and-bound, and the tenant DSL / admit-script front-ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "planner/incremental.h"
#include "pisa/layout.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/parser.h"
#include "run_config.h"
#include "runtime/control_plane.h"
#include "runtime/engine.h"
#include "runtime/runtime.h"
#include "test_trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace sonata::runtime {
namespace {

using planner::AdmissionDiagnostic;

// Split a trace into consecutive window-sized packet chunks.
std::vector<std::vector<net::Packet>> split_windows(const std::vector<net::Packet>& trace,
                                                    util::Nanos window) {
  std::vector<std::vector<net::Packet>> chunks;
  for (const auto& p : trace) {
    const std::uint64_t w = util::window_index(p.ts, window);
    if (w >= chunks.size()) chunks.resize(w + 1);
    chunks[w].push_back(p);
  }
  return chunks;
}

std::map<query::QueryId, std::vector<query::Tuple>> results_of(const WindowStats& ws) {
  std::map<query::QueryId, std::vector<query::Tuple>> out;
  for (const auto& r : ws.results) out[r.qid] = r.outputs;
  return out;
}

// --- submit/withdraw bit-identity vs a static engine -----------------------

// A query submitted before window W and withdrawn before window W+k must
// make windows [W, W+k) bit-identical to a static engine that admitted the
// same set at build time. The test uses non-refinable queries: dynamic
// refinement winners deliberately do not survive a plan swap (a carried
// pipeline behaves exactly like a freshly compiled one), so cross-window
// filter state is the one part of a static run a swap does not replay.
TEST(AdmissionBitIdentity, SubmitThenWithdrawMatchesStaticEngine) {
  const auto sc = testing::make_scenario(11, 120.0);
  const util::Nanos window = util::seconds(3);

  auto make_queries = [&] {
    std::vector<query::Query> qs;
    qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, window));
    qs.push_back(queries::make_superspreader(sc.thresholds, window));
    qs.push_back(queries::make_port_scan(sc.thresholds, window));
    for (auto& q : qs) q.set_refinable(false);
    return qs;
  };

  const auto chunks = split_windows(sc.trace, window);
  ASSERT_GE(chunks.size(), 4u);

  // Static engine: all three queries admitted at build time.
  auto qs = make_queries();
  auto static_built = EngineBuilder().training(sc.trace).admit(qs).build();
  ASSERT_TRUE(static_built) << static_built.error().to_string();
  auto& st = **static_built;

  // Dynamic engine: the first two at build time; port_scan arrives later.
  qs = make_queries();
  const query::Query port_scan = qs.back();
  qs.pop_back();
  auto dynamic_built = EngineBuilder().training(sc.trace).admit(qs).build();
  ASSERT_TRUE(dynamic_built) << dynamic_built.error().to_string();
  auto& dyn = **dynamic_built;

  std::vector<WindowStats> s_stats;
  for (std::size_t w = 0; w < 4; ++w) s_stats.push_back(st.process_window(chunks[w]));

  // Stage the submission during window 0; the swap lands at its close, so
  // port_scan is live for windows 1 and 2. The withdrawal staged during
  // window 2 removes it from window 3 on.
  const auto handle = dyn.submit(port_scan);
  ASSERT_TRUE(handle) << handle.error().to_string();
  std::vector<WindowStats> d_stats;
  d_stats.push_back(dyn.process_window(chunks[0]));
  d_stats.push_back(dyn.process_window(chunks[1]));
  auto withdrawn = dyn.withdraw(*handle);
  ASSERT_TRUE(withdrawn) << withdrawn.error().to_string();
  d_stats.push_back(dyn.process_window(chunks[2]));
  d_stats.push_back(dyn.process_window(chunks[3]));

  // The swaps happened exactly at the window-0 and window-2 barriers.
  EXPECT_TRUE(d_stats[0].plan_swapped);
  EXPECT_FALSE(d_stats[1].plan_swapped);
  EXPECT_TRUE(d_stats[2].plan_swapped);
  EXPECT_FALSE(d_stats[3].plan_swapped);
  EXPECT_EQ(d_stats[1].plan_version, d_stats[2].plan_version);
  EXPECT_GT(d_stats[1].plan_version, d_stats[0].plan_version);
  EXPECT_GT(d_stats[3].plan_version, d_stats[2].plan_version);

  const query::QueryId scan_qid = port_scan.id();
  for (std::size_t w = 0; w < 4; ++w) {
    const auto expect = results_of(s_stats[w]);
    const auto got = results_of(d_stats[w]);
    if (w == 1 || w == 2) {
      // Full active-set match: every query, the raw switch->SP traffic, and
      // the window totals are bit-identical to the static engine.
      EXPECT_EQ(got, expect) << "window " << w;
      EXPECT_EQ(d_stats[w].tuples_to_sp, s_stats[w].tuples_to_sp) << "window " << w;
      EXPECT_EQ(d_stats[w].raw_mirror_packets, s_stats[w].raw_mirror_packets) << "window " << w;
    } else {
      // port_scan is inactive on the dynamic engine; the always-on queries
      // still match the static run exactly.
      EXPECT_EQ(got.count(scan_qid), 0u) << "window " << w;
      for (const auto& [qid, outputs] : expect) {
        if (qid == scan_qid) continue;
        ASSERT_TRUE(got.count(qid)) << "window " << w << " qid " << qid;
        EXPECT_EQ(got.at(qid), outputs) << "window " << w << " qid " << qid;
      }
    }
    EXPECT_EQ(d_stats[w].packets, s_stats[w].packets) << "window " << w;
  }
}

// --- admission diagnostics --------------------------------------------------

TEST(AdmissionDiagnostics, BuildRejectionNamesBindingConstraint) {
  const auto sc = testing::make_scenario(12, 80.0);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .tenant("tiny", {.stage_tables = 0})
                   .admit(queries::make_superspreader(sc.thresholds, util::seconds(3)), "tiny")
                   .build();
  ASSERT_FALSE(built);
  const AdmissionDiagnostic& d = built.error();
  EXPECT_EQ(d.code, AdmissionDiagnostic::Code::kStageBudget);
  EXPECT_EQ(d.tenant, "tiny");
  EXPECT_EQ(d.constraint, "stage_tables");
  EXPECT_EQ(d.budget, 0u);
  EXPECT_GE(d.required, 1u);
  ASSERT_TRUE(d.smallest_admitting.has_value());
  EXPECT_GE(d.smallest_admitting->stage_tables, d.required);
  const std::string text = d.to_string();
  EXPECT_NE(text.find("tiny"), std::string::npos);
  EXPECT_NE(text.find("stage_tables"), std::string::npos);
}

TEST(AdmissionDiagnostics, SmallestAdmittingBudgetActuallyAdmits) {
  const auto sc = testing::make_scenario(13, 80.0);
  const util::Nanos window = util::seconds(3);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .tenant("tiny", {.stage_tables = 0})
                   .admit(queries::make_newly_opened_tcp(sc.thresholds, window))
                   .build();
  ASSERT_TRUE(built) << built.error().to_string();
  auto& engine = **built;

  const query::Query scan = queries::make_port_scan(sc.thresholds, window);
  auto rejected = engine.submit(scan, "tiny");
  ASSERT_FALSE(rejected);
  ASSERT_TRUE(rejected.error().smallest_admitting.has_value());

  // Redefining the tenant with exactly the diagnostic's smallest admitting
  // budget must flip the same submission to accepted.
  engine.control_plane()->define_tenant("tiny", *rejected.error().smallest_admitting);
  auto accepted = engine.submit(scan, "tiny");
  ASSERT_TRUE(accepted) << accepted.error().to_string();

  const auto chunks = split_windows(sc.trace, window);
  ASSERT_FALSE(chunks.empty());
  const WindowStats ws = engine.process_window(chunks[0]);
  EXPECT_TRUE(ws.plan_swapped);

  const auto usage = engine.control_plane()->planner().tenant_usage("tiny");
  EXPECT_EQ(usage.queries, 1u);
  EXPECT_GE(usage.stage_tables, 1u);
}

TEST(AdmissionDiagnostics, OperatorErrorsAreStructured) {
  const auto sc = testing::make_scenario(14, 80.0);
  const util::Nanos window = util::seconds(3);
  auto built = EngineBuilder()
                   .training(sc.trace)
                   .admit(queries::make_newly_opened_tcp(sc.thresholds, window))
                   .build();
  ASSERT_TRUE(built) << built.error().to_string();
  auto& engine = **built;

  auto unknown_tenant = engine.submit(queries::make_ddos(sc.thresholds, window), "nobody");
  ASSERT_FALSE(unknown_tenant);
  EXPECT_EQ(unknown_tenant.error().code, AdmissionDiagnostic::Code::kUnknownTenant);

  auto duplicate = engine.submit(queries::make_newly_opened_tcp(sc.thresholds, window));
  ASSERT_FALSE(duplicate);
  EXPECT_EQ(duplicate.error().code, AdmissionDiagnostic::Code::kDuplicateQueryId);

  auto bogus = engine.withdraw(QueryHandle{9999});
  ASSERT_FALSE(bogus);
  EXPECT_EQ(bogus.error().code, AdmissionDiagnostic::Code::kUnknownHandle);

  // A driver constructed directly around a pre-planned Plan (bypassing
  // EngineBuilder) has no control plane at all.
  planner::Planner planner{planner::PlannerConfig{}};
  std::vector<query::Query> base{queries::make_ddos(sc.thresholds, window)};
  Runtime legacy(planner.plan(base, sc.trace));
  auto no_cp = legacy.submit(queries::make_port_scan(sc.thresholds, window));
  ASSERT_FALSE(no_cp);
  EXPECT_EQ(no_cp.error().code, AdmissionDiagnostic::Code::kNoControlPlane);
}

// --- incremental planning == from-scratch B&B -------------------------------

// Fuzz randomized submit/withdraw sequences: after every mutation, the
// incremental planner's objective must equal a from-scratch plan_windows()
// over the surviving queries in admission order — that is the certification
// contract incremental.h documents.
TEST(IncrementalPlanner, FuzzCostEqualsFromScratchPlan) {
  const auto sc = testing::make_scenario(15, 60.0);
  planner::PlannerConfig cfg;
  const auto windows = planner::materialize_windows(sc.trace, cfg.window);
  ASSERT_FALSE(windows.empty());

  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, cfg.window));
  qs.push_back(queries::make_superspreader(sc.thresholds, cfg.window));
  qs.push_back(queries::make_port_scan(sc.thresholds, cfg.window));
  qs.push_back(queries::make_ddos(sc.thresholds, cfg.window));
  qs.push_back(queries::make_ssh_brute_force(sc.thresholds, cfg.window));
  qs.push_back(queries::make_syn_flood(sc.thresholds, cfg.window));

  planner::IncrementalPlanner inc(cfg, windows);
  planner::Planner scratch(cfg);

  std::vector<std::size_t> admitted_order;  // indices into qs, admission order
  std::vector<std::optional<planner::AdmitId>> handle(qs.size());
  util::Rng rng(99);

  for (int step = 0; step < 24; ++step) {
    const std::size_t i = rng.uniform(qs.size());
    if (handle[i]) {
      ASSERT_TRUE(inc.withdraw(*handle[i]));
      handle[i].reset();
      admitted_order.erase(std::find(admitted_order.begin(), admitted_order.end(), i));
    } else {
      auto id = inc.admit(qs[i]);
      ASSERT_TRUE(id) << id.error().to_string();
      handle[i] = *id;
      admitted_order.push_back(i);
    }

    if (admitted_order.empty()) {
      EXPECT_EQ(inc.objective(), 0u) << "step " << step;
      continue;
    }
    std::vector<query::Query> active;
    for (const std::size_t idx : admitted_order) active.push_back(qs[idx]);
    const planner::Plan reference = scratch.plan_windows(active, windows);
    EXPECT_EQ(inc.objective(), reference.est_total_tuples)
        << "step " << step << " with " << active.size() << " active queries";
  }
  // The whole point: most mutations must certify without a joint re-solve.
  EXPECT_GT(inc.incremental_solves(), 0u);
}

// First-fit is not monotone: removing a program can let a later one move
// into earlier stages and push the next one out. On S=3 with one stateful
// and three stateless actions per stage, A=[stateful 1, stateful 1],
// B=[stateful 2] and C=[2, 2, 1] pack in the order A, B, C, but B, C alone
// do not (B takes stage 0 and pushes C's first table out). Compiled
// queries lead every register table with an index table, so the planner
// meets the same case as A=[filter, map 2], B=[filter, map 3] and
// C=[filter, map 2, reduce] on S=5 with one stateful and four stateless
// actions per stage. Withdrawing A must still snapshot a layout that fits,
// checked through assign_stages (no assert involved, so it holds in
// release builds too).
TEST(IncrementalPlanner, WithdrawThatBreaksFirstFitSnapshotsAFeasibleLayout) {
  const auto program = [](std::vector<std::pair<bool, int>> tables) {
    pisa::ProgramResources p;
    for (const auto& [stateful, actions] : tables) {
      pisa::TableSpec t;
      t.stateful = stateful;
      t.actions = actions;
      p.tables.push_back(t);
    }
    return p;
  };
  pisa::SwitchConfig tiny;
  tiny.stages = 3;
  tiny.stateful_actions_per_stage = 1;
  tiny.stateless_actions_per_stage = 3;
  const auto a = program({{true, 1}, {true, 1}});
  const auto b = program({{true, 2}});
  const auto c = program({{false, 2}, {false, 2}, {false, 1}});
  EXPECT_TRUE(pisa::assign_stages(tiny, {a, b, c}).feasible);
  EXPECT_FALSE(pisa::assign_stages(tiny, {b, c}).feasible);

  const auto parsed = query::parse_queries(R"(
query a id 11 window 3s { packetStream .filter(proto == 6) .map(s = sIP, d = dIP) }
query b id 12 window 3s { packetStream .filter(proto == 17) .map(s = sIP, d = dIP, p = dPort) }
query c id 13 window 3s {
  packetStream .filter(proto == 6 && tcp.flags == 2) .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count)) .filter(count > 1000)
}
)");
  ASSERT_TRUE(parsed.ok());
  const auto sc = testing::make_scenario(15, 20.0);
  planner::PlannerConfig cfg;
  cfg.switch_config.stages = 5;
  cfg.switch_config.stateful_actions_per_stage = 1;
  cfg.switch_config.stateless_actions_per_stage = 4;
  planner::IncrementalPlanner inc(cfg, planner::materialize_windows(sc.trace, cfg.window));
  std::vector<planner::AdmitId> ids;
  for (const auto& q : parsed.queries) {
    auto id = inc.admit(q);
    ASSERT_TRUE(id) << id.error().to_string();
    ids.push_back(*id);
  }
  const planner::Plan before = inc.snapshot_plan();
  ASSERT_TRUE(before.layout.feasible);
  // The case is live: without A's programs, B's and C's placements do not
  // pack in order.
  std::vector<pisa::ProgramResources> rest;
  for (const auto& r : before.resources) {
    if (r.qid != 11) rest.push_back(r);
  }
  ASSERT_FALSE(pisa::assign_stages(cfg.switch_config, rest).feasible);

  ASSERT_TRUE(inc.withdraw(ids[0]));
  const planner::Plan after = inc.snapshot_plan();
  ASSERT_EQ(after.queries.size(), 2u);
  EXPECT_TRUE(after.layout.feasible) << after.layout.error;
  EXPECT_TRUE(pisa::assign_stages(cfg.switch_config, after.resources).feasible);
}

// --- tenant DSL -------------------------------------------------------------

TEST(TenantDsl, DeclarationsAndTagsParse) {
  const auto result = query::parse_queries(R"(
tenant ops budget stages=8 bits=1048576
tenant 'best effort' budget bits=4096

query newly_opened_tcp id 1 window 3s tenant ops {
  packetStream
    .filter(proto == 6 && tcp.flags == 2)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 5)
}

query heavy_udp id 2 window 3s {
  packetStream
    .filter(proto == 17)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 100)
}
)");
  ASSERT_TRUE(result.ok()) << result.errors[0].to_string();
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_EQ(result.tenants[0].name, "ops");
  EXPECT_EQ(result.tenants[0].stage_tables, 8u);
  EXPECT_EQ(result.tenants[0].register_bits, 1048576u);
  EXPECT_EQ(result.tenants[1].name, "best effort");
  EXPECT_EQ(result.tenants[1].stage_tables, query::kNoTenantLimit);
  EXPECT_EQ(result.tenants[1].register_bits, 4096u);
  ASSERT_EQ(result.query_tenants.size(), 2u);
  EXPECT_EQ(result.query_tenants[0], "ops");
  EXPECT_EQ(result.query_tenants[1], "");
}

TEST(TenantDsl, RejectsUndeclaredTenantAndEmptyBudget) {
  const auto undeclared = query::parse_queries(R"(
query q id 1 window 3s tenant ghost {
  packetStream
    .filter(proto == 6)
    .map(dIP = dIP, count = 1)
    .reduce(keys=(dIP), sum(count))
    .filter(count > 5)
}
)");
  ASSERT_FALSE(undeclared.ok());
  EXPECT_NE(undeclared.errors[0].to_string().find("ghost"), std::string::npos);
  EXPECT_TRUE(undeclared.queries.empty());

  const auto empty_budget = query::parse_queries("tenant ops budget\n");
  ASSERT_FALSE(empty_budget.ok());
  EXPECT_NE(empty_budget.errors[0].to_string().find("at least one"), std::string::npos);
}

// --- admit scripts -----------------------------------------------------------

TEST(AdmitScript, ParsesSortsAndValidates) {
  const auto actions = tools::parse_admit_script(R"(
# comment line
5 withdraw suspicious_dns
2 submit suspicious_dns tenant ops   # trailing comment
3 submit port_scan
)");
  ASSERT_TRUE(actions) << actions.error();
  ASSERT_EQ(actions->size(), 3u);
  EXPECT_EQ((*actions)[0].window, 2u);
  EXPECT_TRUE((*actions)[0].submit);
  EXPECT_EQ((*actions)[0].query, "suspicious_dns");
  EXPECT_EQ((*actions)[0].tenant, "ops");
  EXPECT_EQ((*actions)[1].window, 3u);
  EXPECT_EQ((*actions)[1].tenant, "");
  EXPECT_EQ((*actions)[2].window, 5u);
  EXPECT_FALSE((*actions)[2].submit);

  EXPECT_FALSE(tools::parse_admit_script("0 submit q\n"));     // window 0 is static admission
  EXPECT_FALSE(tools::parse_admit_script("x submit q\n"));     // bad window
  EXPECT_FALSE(tools::parse_admit_script("1 frobnicate q\n")); // bad verb
  EXPECT_FALSE(tools::parse_admit_script("1 submit\n"));       // missing query
  EXPECT_FALSE(tools::parse_admit_script("1 withdraw q tenant t\n"));  // tenant on withdraw
  EXPECT_FALSE(tools::parse_admit_script("1 submit q tenant\n"));      // missing tenant name
  EXPECT_FALSE(tools::parse_admit_script("1 submit q tenant t junk\n"));
}

}  // namespace
}  // namespace sonata::runtime
