#include <gtest/gtest.h>

#include "net/headers.h"
#include "pisa/compile.h"
#include "pisa/layout.h"
#include "pisa/register.h"
#include "pisa/switch.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "util/ip.h"

namespace sonata::pisa {
namespace {

using namespace query::dsl;
using query::QueryBuilder;
using query::ReduceFn;
using query::Tuple;
using query::Value;
using util::ipv4;

Tuple key1(std::uint64_t v) { return Tuple{{Value{v}}}; }

TEST(RegisterChain, SumAggregation) {
  RegisterChain chain({.entries_per_register = 64, .depth = 1, .key_bits = 32, .value_bits = 32});
  auto r = chain.update(key1(5), 2, ReduceFn::kSum);
  EXPECT_TRUE(r.newly_inserted);
  EXPECT_EQ(r.value, 2u);
  r = chain.update(key1(5), 3, ReduceFn::kSum);
  EXPECT_FALSE(r.newly_inserted);
  EXPECT_EQ(r.value, 5u);
  EXPECT_EQ(chain.read(key1(5)), 5u);
  EXPECT_FALSE(chain.read(key1(6)).has_value());
}

TEST(RegisterChain, MinMaxBitOrSemantics) {
  RegisterChain chain({.entries_per_register = 64, .depth = 1, .key_bits = 32, .value_bits = 32});
  chain.update(key1(1), 7, ReduceFn::kMin);
  EXPECT_EQ(chain.update(key1(1), 3, ReduceFn::kMin).value, 3u);
  EXPECT_EQ(chain.update(key1(1), 9, ReduceFn::kMin).value, 3u);

  RegisterChain maxc({.entries_per_register = 64, .depth = 1, .key_bits = 32, .value_bits = 32});
  maxc.update(key1(1), 7, ReduceFn::kMax);
  EXPECT_EQ(maxc.update(key1(1), 3, ReduceFn::kMax).value, 7u);

  RegisterChain orc({.entries_per_register = 64, .depth = 1, .key_bits = 32, .value_bits = 1});
  EXPECT_EQ(orc.update(key1(1), 1, ReduceFn::kBitOr).value, 1u);
  EXPECT_EQ(orc.update(key1(1), 1, ReduceFn::kBitOr).value, 1u);
}

TEST(RegisterChain, CollisionFallsThroughToDeeperRegister) {
  // Tiny register: one slot per register, two registers. Two distinct keys
  // must both find slots (the second in register 1); a third overflows.
  RegisterChain chain({.entries_per_register = 1, .depth = 2, .key_bits = 32, .value_bits = 32});
  EXPECT_TRUE(chain.update(key1(1), 1, ReduceFn::kSum).stored);
  EXPECT_TRUE(chain.update(key1(2), 1, ReduceFn::kSum).stored);
  const auto r3 = chain.update(key1(3), 1, ReduceFn::kSum);
  EXPECT_TRUE(r3.overflow);
  EXPECT_FALSE(r3.stored);
  EXPECT_EQ(chain.keys_stored(), 2u);
  EXPECT_EQ(chain.overflow_count(), 1u);
}

TEST(RegisterChain, OverflowIsDeterministicPerKey) {
  // A key either always stores or always overflows within a window: refill
  // with the same keys and observe identical outcomes.
  RegisterChain chain({.entries_per_register = 8, .depth = 1, .key_bits = 32, .value_bits = 32});
  std::vector<bool> first;
  for (std::uint64_t k = 0; k < 32; ++k) first.push_back(chain.update(key1(k), 1, ReduceFn::kSum).overflow);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(chain.update(key1(k), 1, ReduceFn::kSum).overflow, first[k]) << k;
  }
}

TEST(RegisterChain, EntriesAndReset) {
  RegisterChain chain({.entries_per_register = 64, .depth = 2, .key_bits = 32, .value_bits = 32});
  chain.update(key1(1), 5, ReduceFn::kSum);
  chain.update(key1(2), 7, ReduceFn::kSum);
  auto entries = chain.entries();
  EXPECT_EQ(entries.size(), 2u);
  chain.reset();
  EXPECT_TRUE(chain.entries().empty());
  EXPECT_EQ(chain.keys_stored(), 0u);
  // Keys insert fresh after reset.
  EXPECT_TRUE(chain.update(key1(1), 1, ReduceFn::kSum).newly_inserted);
}

TEST(RegisterChain, MarkReported) {
  RegisterChain chain({.entries_per_register = 64, .depth = 1, .key_bits = 32, .value_bits = 32});
  chain.update(key1(9), 1, ReduceFn::kSum);
  EXPECT_TRUE(chain.mark_reported(key1(9)));
  EXPECT_FALSE(chain.mark_reported(key1(9)));  // only the first report fires
  EXPECT_FALSE(chain.mark_reported(key1(10))); // unknown key: no report
}

TEST(RegisterChain, BitsAccounting) {
  RegisterChain chain({.entries_per_register = 1024, .depth = 3, .key_bits = 32, .value_bits = 32});
  EXPECT_EQ(chain.bits_per_register(), 1024u * 64u);
  EXPECT_EQ(chain.total_bits(), 3u * 1024u * 64u);
}

// Higher collision-mitigation depth stores strictly more keys at the same
// per-register size (the Figure 3 relationship).
TEST(RegisterChain, DeeperChainsStoreMoreKeys) {
  std::uint64_t stored[3];
  for (int d = 1; d <= 3; ++d) {
    RegisterChain chain({.entries_per_register = 256, .depth = d, .key_bits = 32, .value_bits = 32});
    for (std::uint64_t k = 0; k < 256; ++k) chain.update(key1(k * 7919 + 13), 1, ReduceFn::kSum);
    stored[d - 1] = chain.keys_stored();
  }
  EXPECT_LT(stored[0], stored[1]);
  EXPECT_LT(stored[1], stored[2]);
}

// --- compile --------------------------------------------------------------

query::Query newly_opened(std::uint64_t th = 40) {
  queries::Thresholds t;
  t.newly_opened = th;
  return queries::make_newly_opened_tcp(t, util::seconds(3));
}

TEST(Compile, Query1FullyCompilesWithFold) {
  auto q = newly_opened();
  const auto* src = q.sources()[0];
  // filter, map, reduce, filter -> all 4 ops on the switch (filter folds).
  EXPECT_EQ(max_switch_prefix(*src), 4u);
  ASSERT_TRUE(foldable_threshold(*src, 3).has_value());
  EXPECT_EQ(foldable_threshold(*src, 3)->threshold, 40u);
  EXPECT_TRUE(foldable_threshold(*src, 3)->strict);
  EXPECT_FALSE(foldable_threshold(*src, 1).has_value());
}

TEST(Compile, PayloadStopsThePrefix) {
  auto q = QueryBuilder::packet_stream()
               .filter(col("proto") == lit(6))
               .filter(query::Expr::payload_contains(col("payload"), "x"))
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .build("p", 60);
  ASSERT_EQ(q.validate(), "");
  EXPECT_EQ(max_switch_prefix(*q.sources()[0]), 1u);
}

TEST(Compile, DivisionStopsThePrefix) {
  auto q = QueryBuilder::packet_stream()
               .map({{"r", col("pktlen") / lit(10)}})
               .build("d", 61);
  ASSERT_EQ(q.validate(), "");
  EXPECT_EQ(max_switch_prefix(*q.sources()[0]), 0u);
}

TEST(Compile, NothingBeyondReduceExceptFold) {
  auto q = QueryBuilder::packet_stream()
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .map({{"dIP", col("dIP")}})  // not foldable
               .build("m", 62);
  ASSERT_EQ(q.validate(), "");
  EXPECT_EQ(max_switch_prefix(*q.sources()[0]), 2u);
}

TEST(Compile, LessThanFilterDoesNotFold) {
  auto q = QueryBuilder::packet_stream()
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .filter(col("c") < lit(10))
               .build("lt", 63);
  ASSERT_EQ(q.validate(), "");
  // The reduce compiles but the `<` filter cannot ride along (no crossing
  // report semantics); it runs on polled values at the stream processor.
  EXPECT_EQ(max_switch_prefix(*q.sources()[0]), 2u);
}

TEST(Compile, TableCounts) {
  auto q = newly_opened();
  const auto* src = q.sources()[0];
  std::map<std::size_t, RegisterSizing> sizing{{2, {.entries = 1024, .depth = 2}}};
  const auto res = build_resources(*src, 4, sizing, q.id(), 0, 32);
  // filter(1) + map(1) + reduce idx(1) + 2 registers; the threshold folds.
  ASSERT_EQ(res.tables.size(), 5u);
  EXPECT_EQ(res.stateful_tables(), 2);
  // Register bits: entries * (32-bit key + 32-bit value) per register.
  EXPECT_EQ(res.tables[3].register_bits, 1024u * 64u);
  EXPECT_EQ(res.total_register_bits(), 2u * 1024u * 64u);
}

TEST(Compile, MetadataLiveness) {
  auto q = newly_opened();
  const auto* src = q.sources()[0];
  const auto res = build_resources(*src, 4, {{2, {.entries = 64, .depth = 1}}}, q.id(), 0, 32);
  // Live columns peak at the emitted schema: dIP(32) + count(32) = 64 bits
  // (wider than the source-side proto+flags+dIP = 48), plus qid + report.
  EXPECT_EQ(res.metadata_bits, 32 + 32 + kQidBits + kReportBits);
}

TEST(Compile, PartitionZeroUsesNoMetadata) {
  auto q = newly_opened();
  const auto res = build_resources(*q.sources()[0], 0, {}, q.id(), 0, 32);
  EXPECT_EQ(res.metadata_bits, 0);
  EXPECT_TRUE(res.tables.empty());
}

TEST(Compile, StatefulKeyBits) {
  queries::Thresholds th;
  auto q = queries::make_ssh_brute_force(th, util::seconds(3));
  const auto* src = q.sources()[0];
  // ops: filter, map(dIP,len,sIP), distinct, map, reduce(dIP,len), filter
  EXPECT_EQ(stateful_key_bits(*src, 2), 32 + 16 + 32);  // whole tuple for distinct
  EXPECT_EQ(stateful_key_bits(*src, 4), 32 + 16);       // reduce keys (dIP, len)
}

// --- layout ----------------------------------------------------------------

ProgramResources simple_program(query::QueryId qid, int tables, int stateful_at,
                                std::uint64_t reg_bits, int metadata = 100) {
  ProgramResources res;
  res.qid = qid;
  res.metadata_bits = metadata;
  for (int i = 0; i < tables; ++i) {
    TableSpec t;
    t.name = "q" + std::to_string(qid) + "/t" + std::to_string(i);
    t.stateful = (i == stateful_at);
    t.register_bits = t.stateful ? reg_bits : 0;
    res.tables.push_back(t);
  }
  return res;
}

TEST(Layout, SequentialTablesClimbStages) {
  SwitchConfig cfg;
  cfg.stages = 4;
  const auto layout = assign_stages(cfg, {simple_program(1, 3, 2, 1000)});
  ASSERT_TRUE(layout.feasible);
  EXPECT_EQ(layout.table_stages[0], (std::vector<int>{0, 1, 2}));
}

TEST(Layout, IndependentQueriesShareStages) {
  SwitchConfig cfg;
  cfg.stages = 4;
  const auto layout =
      assign_stages(cfg, {simple_program(1, 2, 1, 1000), simple_program(2, 2, 1, 1000)});
  ASSERT_TRUE(layout.feasible);
  EXPECT_EQ(layout.table_stages[0][0], 0);
  EXPECT_EQ(layout.table_stages[1][0], 0);  // shares stage 0
}

TEST(Layout, TooManyTablesForStagesFails) {
  SwitchConfig cfg;
  cfg.stages = 2;
  const auto layout = assign_stages(cfg, {simple_program(1, 3, -1, 0)});
  EXPECT_FALSE(layout.feasible);
  EXPECT_NE(layout.error.find("no stage"), std::string::npos);
}

TEST(Layout, StatefulActionsPerStageEnforced) {
  SwitchConfig cfg;
  cfg.stages = 1;
  cfg.stateful_actions_per_stage = 1;
  // Two single-table stateful programs in one stage: second cannot fit.
  const auto layout =
      assign_stages(cfg, {simple_program(1, 1, 0, 100), simple_program(2, 1, 0, 100)});
  EXPECT_FALSE(layout.feasible);
}

TEST(Layout, RegisterBitsPerStageEnforced) {
  SwitchConfig cfg;
  cfg.stages = 2;
  cfg.register_bits_per_stage = 1000;
  cfg.max_bits_per_register = 1000;
  // Each register takes 600 bits; two fit only in separate stages.
  const auto layout =
      assign_stages(cfg, {simple_program(1, 1, 0, 600), simple_program(2, 1, 0, 600)});
  ASSERT_TRUE(layout.feasible);
  EXPECT_NE(layout.table_stages[0][0], layout.table_stages[1][0]);
}

TEST(Layout, PerRegisterCapEnforced) {
  SwitchConfig cfg;
  cfg.max_bits_per_register = 500;
  const auto layout = assign_stages(cfg, {simple_program(1, 1, 0, 600)});
  EXPECT_FALSE(layout.feasible);
  EXPECT_NE(layout.error.find("per-register cap"), std::string::npos);
}

TEST(Layout, MetadataBudgetEnforced) {
  SwitchConfig cfg;
  cfg.metadata_bits = 150;
  const auto layout =
      assign_stages(cfg, {simple_program(1, 1, -1, 0, 100), simple_program(2, 1, -1, 0, 100)});
  EXPECT_FALSE(layout.feasible);
  EXPECT_NE(layout.error.find("metadata"), std::string::npos);
}

// --- executable switch -----------------------------------------------------

class SwitchExecTest : public ::testing::Test {
 protected:
  static query::Tuple tup(const net::Packet& p) { return query::materialize_tuple(p); }
};

TEST_F(SwitchExecTest, Query1EndToEndOnSwitch) {
  auto q = newly_opened(/*th=*/2);
  const auto* src = q.sources()[0];
  CompiledSwitchQuery::Options opts;
  opts.qid = 1;
  opts.partition = 4;
  opts.sizing[2] = {.entries = 256, .depth = 2};
  CompiledSwitchQuery prog(*src, opts);
  EXPECT_TRUE(prog.has_stateful_tail());

  const auto victim = ipv4(9, 9, 9, 9);
  // 3 SYNs to the victim and 1 elsewhere.
  std::vector<net::Packet> pkts;
  for (int i = 0; i < 3; ++i) {
    pkts.push_back(net::Packet::tcp(0, ipv4(1, 1, 1, std::uint32_t(i + 1)), victim, 1000, 80,
                                    net::tcp_flags::kSyn, 40));
  }
  pkts.push_back(net::Packet::tcp(0, ipv4(1, 1, 1, 9), ipv4(8, 8, 8, 8), 1000, 80,
                                  net::tcp_flags::kSyn, 40));
  pkts.push_back(net::Packet::tcp(0, ipv4(1, 1, 1, 9), victim, 1000, 80, net::tcp_flags::kAck,
                                  40));  // not a SYN: filtered

  int reports = 0;
  for (const auto& p : pkts) {
    if (auto rec = prog.process(tup(p))) {
      ++reports;
      EXPECT_EQ(rec->kind, EmitRecord::Kind::kKeyReport);
      EXPECT_EQ(rec->tuple.at(0).as_uint(), victim);
      EXPECT_EQ(rec->tuple.at(1).as_uint(), 3u);  // crossed Th=2 on 3rd SYN
    }
  }
  EXPECT_EQ(reports, 1);  // exactly one report per crossing key

  // Polling returns every stored aggregate (the SP merges and re-filters);
  // the folded threshold only limited the report packets above.
  auto aggs = prog.poll_aggregates();
  ASSERT_EQ(aggs.size(), 2u);
  std::map<std::uint64_t, std::uint64_t> by_key;
  for (const auto& t : aggs) by_key[t.at(0).as_uint()] = t.at(1).as_uint();
  EXPECT_EQ(by_key.at(victim), 3u);
  EXPECT_EQ(by_key.at(ipv4(8, 8, 8, 8)), 1u);
  EXPECT_EQ(prog.poll_entry_op(), 2u);  // aggregates re-enter at the reduce

  prog.reset_registers();
  EXPECT_TRUE(prog.poll_aggregates().empty());
}

TEST_F(SwitchExecTest, ReduceWithoutFoldReportsEachNewKey) {
  auto q = QueryBuilder::packet_stream()
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .build("nf", 70);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;
  opts.sizing[1] = {.entries = 64, .depth = 1};
  CompiledSwitchQuery prog(*q.sources()[0], opts);
  int reports = 0;
  for (std::uint32_t d = 1; d <= 3; ++d) {
    for (int rep = 0; rep < 2; ++rep) {
      if (prog.process(tup(net::Packet::tcp(0, 1, d, 2, 3, 0, 40)))) ++reports;
    }
  }
  EXPECT_EQ(reports, 3);  // one per distinct key
  EXPECT_EQ(prog.poll_aggregates().size(), 3u);
}

TEST_F(SwitchExecTest, StatelessTailStreamsTuples) {
  auto q = QueryBuilder::packet_stream()
               .filter(col("tcp.flags") == lit(2))
               .map({{"dIP", col("dIP")}, {"c", lit(1)}})
               .reduce({"dIP"}, ReduceFn::kSum, "c")
               .build("st", 71);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;  // only filter+map on the switch
  CompiledSwitchQuery prog(*q.sources()[0], opts);
  EXPECT_FALSE(prog.has_stateful_tail());
  auto rec = prog.process(tup(net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kSyn, 40)));
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->kind, EmitRecord::Kind::kStream);
  EXPECT_EQ(rec->op_index, 2u);
  ASSERT_EQ(rec->tuple.size(), 2u);  // mapped schema (dIP, c)
  EXPECT_FALSE(prog.process(tup(net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kAck, 40))));
}

TEST_F(SwitchExecTest, DistinctDropsDuplicatesAndOverflows) {
  auto q = QueryBuilder::packet_stream()
               .map({{"sIP", col("sIP")}, {"dIP", col("dIP")}})
               .distinct()
               .build("di", 72);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;
  opts.sizing[1] = {.entries = 1, .depth = 1};  // force overflow on 2nd key
  CompiledSwitchQuery prog(*q.sources()[0], opts);
  const auto r1 = prog.process(tup(net::Packet::tcp(0, 1, 2, 3, 4, 0, 40)));
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->kind, EmitRecord::Kind::kStream);
  // Duplicate: suppressed.
  EXPECT_FALSE(prog.process(tup(net::Packet::tcp(0, 1, 2, 3, 4, 0, 40))));
  // New key collides in the single slot: overflow to the SP.
  const auto r2 = prog.process(tup(net::Packet::tcp(0, 5, 6, 3, 4, 0, 40)));
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->kind, EmitRecord::Kind::kOverflow);
  EXPECT_EQ(r2->op_index, 1u);  // SP re-enters at the distinct
}

TEST_F(SwitchExecTest, FilterInMatchesInstalledEntries) {
  auto q = QueryBuilder::packet_stream()
               .filter_in({query::Expr::ip_prefix(col("dIP"), 8)}, "tbl")
               .map({{"dIP", col("dIP")}}).build("fi", 73);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;
  CompiledSwitchQuery prog(*q.sources()[0], opts);
  // Empty table: nothing passes.
  EXPECT_FALSE(prog.process(tup(net::Packet::tcp(0, 1, ipv4(9, 1, 2, 3), 2, 3, 0, 40))));
  // Install 9.0.0.0/8 and retry.
  EXPECT_TRUE(prog.set_filter_entries(
      "tbl", {Tuple{{Value{std::uint64_t{ipv4(9, 0, 0, 0)}}}}}));
  EXPECT_TRUE(prog.process(tup(net::Packet::tcp(0, 1, ipv4(9, 1, 2, 3), 2, 3, 0, 40))));
  EXPECT_FALSE(prog.process(tup(net::Packet::tcp(0, 1, ipv4(10, 1, 2, 3), 2, 3, 0, 40))));
  EXPECT_FALSE(prog.set_filter_entries("nope", {}));
}

TEST_F(SwitchExecTest, SwitchInstallRejectsOversizedPrograms) {
  SwitchConfig cfg;
  cfg.stages = 1;
  Switch sw(cfg);
  auto q = newly_opened();
  const auto* src = q.sources()[0];
  std::map<std::size_t, RegisterSizing> sizing{{2, {.entries = 64, .depth = 1}}};
  std::vector<std::unique_ptr<CompiledSwitchQuery>> progs;
  CompiledSwitchQuery::Options opts;
  opts.partition = 4;
  opts.sizing = sizing;
  progs.push_back(std::make_unique<CompiledSwitchQuery>(*src, opts));
  const auto err = sw.install(std::move(progs), {build_resources(*src, 4, sizing, 1, 0, 32)});
  EXPECT_FALSE(err.empty());
}

TEST_F(SwitchExecTest, DriverLatencyModel) {
  SwitchConfig cfg;
  Switch sw(cfg);
  auto q = QueryBuilder::packet_stream()
               .filter_in({query::Expr::ip_prefix(col("dIP"), 8)}, "t")
               .map({{"dIP", col("dIP")}})
               .build("lat", 74);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;
  std::vector<std::unique_ptr<CompiledSwitchQuery>> progs;
  progs.push_back(std::make_unique<CompiledSwitchQuery>(*q.sources()[0], opts));
  ASSERT_EQ(sw.install(std::move(progs), {build_resources(*q.sources()[0], 2, {}, 74, 0, 32)}),
            "");
  std::vector<Tuple> entries;
  for (std::uint64_t i = 0; i < 200; ++i) entries.push_back(Tuple{{Value{i}}});
  sw.update_filter_entries("t", entries);
  sw.reset_all_registers();
  // Paper's Tofino micro-benchmark: 200 updates ~127 ms + reset ~4 ms.
  EXPECT_NEAR(sw.stats().control_update_millis, 131.0, 0.5);
}

TEST_F(SwitchExecTest, ControlLatencyDeltaIgnoresResetOrder) {
  // One driver resets a window's registers before installing its winners,
  // another after: the window's control-latency delta must be bit-equal.
  auto q = QueryBuilder::packet_stream()
               .filter_in({query::Expr::ip_prefix(col("dIP"), 8)}, "t")
               .map({{"dIP", col("dIP")}})
               .build("lat", 75);
  ASSERT_EQ(q.validate(), "");
  CompiledSwitchQuery::Options opts;
  opts.partition = 2;
  Switch install_first{SwitchConfig{}};
  Switch reset_first{SwitchConfig{}};
  for (Switch* sw : {&install_first, &reset_first}) {
    std::vector<std::unique_ptr<CompiledSwitchQuery>> progs;
    progs.push_back(std::make_unique<CompiledSwitchQuery>(*q.sources()[0], opts));
    ASSERT_EQ(sw->install(std::move(progs), {build_resources(*q.sources()[0], 2, {}, 75, 0, 32)}),
              "");
  }
  for (std::uint64_t window = 0; window < 64; ++window) {
    std::vector<Tuple> entries;
    for (std::uint64_t i = 0; i < 3 + (window * 7) % 23; ++i) entries.push_back(Tuple{{Value{i}}});
    const double before_a = install_first.stats().control_update_millis;
    install_first.update_filter_entries("t", entries);
    install_first.reset_all_registers();
    const double before_b = reset_first.stats().control_update_millis;
    reset_first.reset_all_registers();
    reset_first.update_filter_entries("t", entries);
    EXPECT_EQ(install_first.stats().control_update_millis - before_a,
              reset_first.stats().control_update_millis - before_b)
        << "window " << window;
  }
}

}  // namespace
}  // namespace sonata::pisa
