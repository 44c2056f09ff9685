// Differential test of the incremental stage packer (pisa::StagePacker)
// against a deliberately naive oracle: a from-scratch earliest-fit over the
// whole program list, written without the packer's prefix bookkeeping.
// Random push/truncate sequences on small switches make every constraint
// bind (C1 register bits per stage, C2 stateful actions per stage, C3 the
// stage count, C4 table order within a program, C5 the metadata budget)
// along with the stateless-action budget and the per-register cap; at every
// step the packer's verdict must equal the oracle's on the same list, and
// its layout must equal the oracle's table for table and stage for stage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pisa/layout.h"
#include "util/rng.h"

namespace sonata::pisa {
namespace {

// Which checks rejected a stage or a program, summed over a run.
struct Coverage {
  std::uint64_t register_bits = 0;  // C1
  std::uint64_t stateful = 0;       // C2
  std::uint64_t actions = 0;        // stateless actions per stage
  std::uint64_t out_of_stages = 0;  // C3 (with C4 pushing tables later)
  std::uint64_t register_cap = 0;   // per-register cap
  std::uint64_t metadata = 0;       // C5
};

struct Oracle {
  bool feasible = false;
  std::vector<std::vector<int>> table_stages;
  std::vector<StageUsage> stages;
};

// Earliest-fit of `programs` from an empty switch.
Oracle naive_first_fit(const SwitchConfig& cfg, const std::vector<ProgramResources>& programs,
                       Coverage* cov = nullptr) {
  Oracle out;
  out.stages.assign(static_cast<std::size_t>(cfg.stages), StageUsage{});
  std::uint64_t metadata = 0;
  for (const auto& p : programs) metadata += static_cast<std::uint64_t>(p.metadata_bits);
  if (metadata > cfg.metadata_bits) {
    if (cov) ++cov->metadata;
    return out;
  }
  for (const auto& p : programs) {
    std::vector<int> stages;
    int after = -1;
    for (const auto& t : p.tables) {
      if (t.stateful && t.register_bits > cfg.max_bits_per_register) {
        if (cov) ++cov->register_cap;
        return out;
      }
      int chosen = -1;
      for (int s = after + 1; s < cfg.stages && chosen < 0; ++s) {
        StageUsage& u = out.stages[static_cast<std::size_t>(s)];
        const bool c1 = u.register_bits + t.register_bits <= cfg.register_bits_per_stage;
        const bool c2 = !t.stateful || u.stateful + 1 <= cfg.stateful_actions_per_stage;
        const bool act = u.stateless_actions + t.actions <= cfg.stateless_actions_per_stage;
        if (cov) {
          cov->register_bits += c1 ? 0 : 1;
          cov->stateful += c2 ? 0 : 1;
          cov->actions += act ? 0 : 1;
        }
        if (c1 && c2 && act) chosen = s;
      }
      if (chosen < 0) {
        if (cov) ++cov->out_of_stages;
        return out;
      }
      StageUsage& u = out.stages[static_cast<std::size_t>(chosen)];
      u.register_bits += t.register_bits;
      u.stateful += t.stateful ? 1 : 0;
      u.stateless_actions += t.actions;
      stages.push_back(chosen);
      after = chosen;
    }
    out.table_stages.push_back(std::move(stages));
  }
  out.feasible = true;
  return out;
}

SwitchConfig random_config(util::Rng& rng) {
  SwitchConfig cfg;
  cfg.stages = static_cast<int>(rng.uniform(2, 6));
  cfg.stateful_actions_per_stage = static_cast<int>(rng.uniform(1, 3));
  cfg.stateless_actions_per_stage = static_cast<int>(rng.uniform(2, 6));
  cfg.register_bits_per_stage = rng.uniform(1'000, 4'000);
  cfg.max_bits_per_register = rng.uniform(600, 2'000);
  cfg.metadata_bits = rng.uniform(150, 700);
  return cfg;
}

ProgramResources random_program(util::Rng& rng, int id) {
  ProgramResources p;
  p.qid = static_cast<query::QueryId>(id);
  p.metadata_bits = static_cast<int>(rng.uniform(10, 150));
  const int tables = static_cast<int>(rng.uniform(1, 4));
  for (int t = 0; t < tables; ++t) {
    TableSpec spec;
    spec.name = "p" + std::to_string(id) + "/t" + std::to_string(t);
    spec.stateful = rng.bernoulli(0.45);
    spec.register_bits = spec.stateful ? rng.uniform(100, 2'200) : 0;
    spec.actions = static_cast<int>(rng.uniform(1, 3));
    p.tables.push_back(std::move(spec));
  }
  return p;
}

void expect_layout_equals(const Layout& got, const Oracle& want, const std::string& where) {
  ASSERT_TRUE(got.feasible) << where;
  ASSERT_EQ(got.table_stages, want.table_stages) << where;
  ASSERT_EQ(got.stages.size(), want.stages.size()) << where;
  for (std::size_t s = 0; s < want.stages.size(); ++s) {
    EXPECT_EQ(got.stages[s].stateful, want.stages[s].stateful) << where << " stage " << s;
    EXPECT_EQ(got.stages[s].stateless_actions, want.stages[s].stateless_actions)
        << where << " stage " << s;
    EXPECT_EQ(got.stages[s].register_bits, want.stages[s].register_bits)
        << where << " stage " << s;
  }
}

TEST(StagePacker, MatchesNaiveFirstFitUnderRandomPushAndTruncate) {
  util::Rng rng(0x57a6e);
  Coverage cov;
  std::uint64_t rejected = 0;
  std::uint64_t truncates = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const SwitchConfig cfg = random_config(rng);
    StagePacker packer(cfg);
    std::vector<ProgramResources> placed;  // the packer's program list, mirrored
    int next_id = 0;
    for (int step = 0; step < 40; ++step) {
      const std::string where = "trial " + std::to_string(trial) + " step " +
                                std::to_string(step);
      if (!placed.empty() && rng.bernoulli(0.3)) {
        const auto mark = static_cast<std::size_t>(rng.uniform(0, placed.size()));
        packer.truncate(mark);
        placed.resize(mark);
        ++truncates;
      } else {
        const ProgramResources p = random_program(rng, next_id++);
        std::vector<ProgramResources> tried = placed;
        tried.push_back(p);
        const Oracle want = naive_first_fit(cfg, tried, &cov);
        std::string error;
        const bool fits = packer.push(p, &error);
        ASSERT_EQ(fits, want.feasible) << where;
        if (fits) {
          placed.push_back(p);
        } else {
          EXPECT_FALSE(error.empty()) << where;
          ++rejected;
        }
      }
      ASSERT_EQ(packer.size(), placed.size()) << where;
      expect_layout_equals(packer.layout(), naive_first_fit(cfg, placed), where);
    }
    // assign_stages is the same first-fit over a fresh packer.
    const Layout whole = assign_stages(cfg, placed);
    expect_layout_equals(whole, naive_first_fit(cfg, placed), "assign_stages");
  }
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(truncates, 100u);
  EXPECT_GT(cov.register_bits, 0u);
  EXPECT_GT(cov.stateful, 0u);
  EXPECT_GT(cov.actions, 0u);
  EXPECT_GT(cov.out_of_stages, 0u);
  EXPECT_GT(cov.register_cap, 0u);
  EXPECT_GT(cov.metadata, 0u);
}

TEST(StagePacker, RejectedPushLeavesThePrefixUntouched) {
  SwitchConfig cfg;
  cfg.stages = 2;
  StagePacker packer(cfg);
  ProgramResources one;
  one.metadata_bits = 10;
  one.tables.push_back({.name = "a/t0", .actions = 1});
  ASSERT_TRUE(packer.push(one));
  const Layout before = packer.layout();

  ProgramResources three;  // three dependent tables cannot fit two stages
  three.metadata_bits = 10;
  for (int t = 0; t < 3; ++t) three.tables.push_back({.name = "b/t" + std::to_string(t)});
  std::string error;
  EXPECT_FALSE(packer.push(three, &error));
  EXPECT_NE(error.find("no stage fits table b/t2"), std::string::npos) << error;

  const Layout after = packer.layout();
  EXPECT_EQ(packer.size(), 1u);
  EXPECT_EQ(after.table_stages, before.table_stages);
  EXPECT_EQ(after.metadata_bits_used, before.metadata_bits_used);
  EXPECT_EQ(after.stages[0].stateless_actions, before.stages[0].stateless_actions);
  EXPECT_EQ(after.stages[1].stateless_actions, 0);
}

TEST(StagePacker, TruncateRestoresMetadataBudget) {
  SwitchConfig cfg;
  cfg.metadata_bits = 100;
  StagePacker packer(cfg);
  ProgramResources p;
  p.metadata_bits = 60;
  p.tables.push_back({.name = "t"});
  ASSERT_TRUE(packer.push(p));
  EXPECT_FALSE(packer.push(p));  // 120 > 100 (C5)
  packer.truncate(0);
  EXPECT_EQ(packer.size(), 0u);
  EXPECT_TRUE(packer.push(p));
  EXPECT_EQ(packer.layout().metadata_bits_used, 60);
}

}  // namespace
}  // namespace sonata::pisa
