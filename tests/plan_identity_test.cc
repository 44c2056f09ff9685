// Plan identity: the planner's estimator build runs its replays as tasks
// on every available core, and the plans it yields must not depend on that.
// The evaluation queries are planned over the workload perfbench/ builds
// (24 one-second windows, training windows 2-3, thresholds / 3, a
// 10,000-node search cap), for Sonata and All-SP, through both planning
// entry points: EngineBuilder::plan_only (one admission batch) and
// Planner::plan_windows (plan_joint). Each plan's est_total_tuples,
// fingerprint() and a hash of summary() must equal the values recorded
// from the serial estimator, and planning twice in one process must give
// the same plan again.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/control_plane.h"
#include "runtime/engine.h"
#include "util/hash.h"

namespace sonata {
namespace {

struct Recorded {
  std::uint64_t seed;
  // EngineBuilder::plan_only
  std::uint64_t est_total;
  std::uint64_t fingerprint;
  std::uint64_t summary_hash;
  // Planner::plan_windows
  std::uint64_t joint_est_total;
  std::uint64_t joint_fingerprint;
  std::uint64_t joint_summary_hash;
};

constexpr Recorded kSonata[] = {
    {1, 8370u, 0x6a36f5ff19f7650bu, 0x60d8ade7b0748b3fu, 8370u, 0x3fdf8cc5ff1ae968u,
     0xf4d43e844773bed4u},
    {2, 8320u, 0x15e00fe21079d119u, 0x489fa4559a21860fu, 8320u, 0x7747a0cebf00678au,
     0xbc48af5ae60e1322u},
    {2018, 8345u, 0x1656c85997c3f4e8u, 0x1c458e885429421cu, 8345u, 0xfbe41bd44b81cbafu,
     0xcad5e2af10999649u},
};

constexpr Recorded kAllSp[] = {
    {1, 28291u, 0xfecde01e8cec7c32u, 0x785334cc3d3bb3a1u, 28291u, 0xe9e43b43adee7097u,
     0x36f7bc99562bd93eu},
    {2, 28112u, 0x7a0ba97cdfea82a7u, 0x84cd52966d08ee51u, 28112u, 0xd2deab3febb7b0f0u,
     0xf2d321dcb78cd736u},
    {2018, 27983u, 0x7097ba9146ece2c6u, 0xa69541fb146ed738u, 27983u, 0x55628e484b3014f1u,
     0xfd11f59f6b034417u},
};

constexpr util::Nanos kWindow = util::kNanosPerSec;

struct Setup {
  std::vector<net::Packet> training;
  std::vector<query::Query> queries;
};

Setup make_setup(std::uint64_t seed) {
  bench::Options opts;
  opts.seed = seed;
  bench::Workload eval = bench::make_eval_workload(opts);
  Setup s;
  for (const net::Packet& p : eval.trace) {
    const std::uint64_t w = util::window_index(p.ts, kWindow);
    if (w >= 2 && w < 4) s.training.push_back(p);
  }
  queries::Thresholds th = eval.thresholds;
  for (std::uint64_t* t : {&th.newly_opened, &th.ssh_brute, &th.superspreader, &th.port_scan,
                           &th.ddos, &th.syn_flood, &th.incomplete_flows, &th.slowloris_bytes}) {
    *t /= 3;
  }
  s.queries = queries::evaluation_queries(th, kWindow);
  return s;
}

planner::PlannerConfig config(planner::PlanMode mode) {
  planner::PlannerConfig cfg;
  cfg.mode = mode;
  cfg.window = kWindow;
  cfg.search_node_cap = 10000;
  return cfg;
}

struct Planned {
  std::uint64_t est_total;
  std::uint64_t fingerprint;
  std::uint64_t summary_hash;
};

Planned describe(const planner::Plan& plan) {
  return {plan.est_total_tuples, plan.fingerprint(), util::fnv1a64(plan.summary())};
}

Planned plan_batch(const Setup& s, planner::PlanMode mode) {
  runtime::EngineBuilder b;
  b.planner(config(mode)).training(s.training).admit(s.queries);
  auto planned = b.plan_only();
  EXPECT_TRUE(planned.has_value());
  return planned ? describe(planned->plan) : Planned{};
}

Planned plan_joint(const Setup& s, planner::PlanMode mode) {
  const auto windows = planner::materialize_windows(s.training, kWindow);
  return describe(planner::Planner(config(mode)).plan_windows(s.queries, windows));
}

void expect_recorded(planner::PlanMode mode, std::span<const Recorded> recorded) {
  for (const Recorded& r : recorded) {
    SCOPED_TRACE("seed " + std::to_string(r.seed));
    const Setup s = make_setup(r.seed);
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      const Planned batch = plan_batch(s, mode);
      EXPECT_EQ(batch.est_total, r.est_total);
      EXPECT_EQ(batch.fingerprint, r.fingerprint);
      EXPECT_EQ(batch.summary_hash, r.summary_hash);
      const Planned joint = plan_joint(s, mode);
      EXPECT_EQ(joint.est_total, r.joint_est_total);
      EXPECT_EQ(joint.fingerprint, r.joint_fingerprint);
      EXPECT_EQ(joint.summary_hash, r.joint_summary_hash);
    }
  }
}

TEST(PlanIdentity, SonataPlansMatchTheRecordedPlans) {
  expect_recorded(planner::PlanMode::kSonata, kSonata);
}

TEST(PlanIdentity, AllSpPlansMatchTheRecordedPlans) {
  expect_recorded(planner::PlanMode::kAllSP, kAllSp);
}

}  // namespace
}  // namespace sonata
