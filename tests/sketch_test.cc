// Keyed-state engine tests (DESIGN.md "Keyed-state engines"): the sketch
// primitives' probabilistic contracts (count-min/count-sketch error bounds,
// Bloom/cuckoo false-positive rates, never a false negative), the HashPipe
// register pipeline's conservation and heavy-hitter survival, and the
// engine-level guarantees the executors rely on — exact mode bit-identical
// to the PR 4 flat-table path, sketch mode within its eps/delta envelope
// on Zipf/heavy-tail fuzz workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/headers.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/parser.h"
#include "query/query.h"
#include "query/state_spec.h"
#include "state/engine.h"
#include "state/hashpipe.h"
#include "state/sketch.h"
#include "runtime/runtime.h"
#include "stream/executor.h"
#include "test_trace.h"
#include "util/hash.h"
#include "util/ip.h"

namespace sonata {
namespace {

using query::ReduceFn;
using query::StateSpec;
using query::Tuple;
using query::Value;

Tuple key_of(std::uint64_t id) {
  Tuple t;
  t.values.emplace_back(id);
  return t;
}

StateSpec sketch_spec(double eps, double delta) {
  StateSpec s;
  s.kind = StateSpec::Kind::kSketch;
  s.eps = eps;
  s.delta = delta;
  return s;
}

// Zipf-ish workload: key i (0-based rank) carries weight floor(K/(i+1)),
// applied in a deterministically shuffled per-increment order.
struct ZipfWorkload {
  std::vector<std::uint64_t> truth;  // truth[i] = total weight of key i
  std::vector<std::uint32_t> updates;  // one entry per unit increment
  std::uint64_t total = 0;
};

ZipfWorkload make_zipf(std::uint32_t keys, std::uint64_t seed) {
  ZipfWorkload w;
  w.truth.resize(keys);
  for (std::uint32_t i = 0; i < keys; ++i) {
    w.truth[i] = std::max<std::uint64_t>(1, keys / (i + 1));
    w.total += w.truth[i];
    for (std::uint64_t u = 0; u < w.truth[i]; ++u) w.updates.push_back(i);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(w.updates.begin(), w.updates.end(), rng);
  return w;
}

// --- sketch primitives ------------------------------------------------------

TEST(CountMin, NeverUnderestimatesAndBoundsError) {
  const double eps = 0.01, delta = 0.01;
  state::CountMinSketch cm(eps, delta);
  const auto w = make_zipf(4096, 42);
  for (const std::uint32_t i : w.updates) {
    cm.update(util::hash_u64(i, 1), 1, ReduceFn::kSum);
  }
  const double bound = eps * static_cast<double>(w.total);
  std::size_t over = 0;
  for (std::uint32_t i = 0; i < w.truth.size(); ++i) {
    const std::uint64_t est = cm.estimate(util::hash_u64(i, 1), ReduceFn::kSum);
    ASSERT_GE(est, w.truth[i]) << "count-min underestimated key " << i;
    if (static_cast<double>(est - w.truth[i]) > bound) ++over;
  }
  // P(err > eps*N) <= delta per key; allow generous slack on top.
  EXPECT_LE(static_cast<double>(over) / static_cast<double>(w.truth.size()), delta + 0.02);
}

TEST(CountSketch, MedianEstimateWithinBound) {
  const double eps = 0.05, delta = 0.01;
  state::CountSketch cs(eps, delta);
  const auto w = make_zipf(2048, 7);
  for (const std::uint32_t i : w.updates) {
    cs.update(util::hash_u64(i, 1), 1);
  }
  // Count-sketch bound uses the L2 norm; eps * N (L1) is strictly looser,
  // so check against it with the same delta-style slack.
  const double bound = eps * static_cast<double>(w.total);
  std::size_t over = 0;
  for (std::uint32_t i = 0; i < w.truth.size(); ++i) {
    const std::uint64_t est = cs.estimate(util::hash_u64(i, 1));
    const double err = std::abs(static_cast<double>(est) - static_cast<double>(w.truth[i]));
    if (err > bound) ++over;
  }
  EXPECT_LE(static_cast<double>(over) / static_cast<double>(w.truth.size()), delta + 0.02);
}

TEST(BloomFilter, NoFalseNegativesAndBoundedFalsePositives) {
  const double eps = 0.01;
  const std::uint64_t n = 20000;
  state::BloomFilter bf(n, eps);
  std::uint64_t insert_fp = 0;  // fresh key reported seen: allowed at rate <= eps
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!bf.insert_new(util::hash_u64(i, 3))) ++insert_fp;
  }
  EXPECT_LE(static_cast<double>(insert_fp) / static_cast<double>(n), 3.0 * eps);
  // Everything inserted must be found (no false negatives, ever).
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bf.maybe_contains(util::hash_u64(i, 3)));
  }
  std::uint64_t fp = 0;
  for (std::uint64_t i = n; i < 2 * n; ++i) {
    if (bf.maybe_contains(util::hash_u64(i, 3))) ++fp;
  }
  EXPECT_LE(static_cast<double>(fp) / static_cast<double>(n), 3.0 * eps);
  bf.clear();
  EXPECT_FALSE(bf.maybe_contains(util::hash_u64(0, 3)));
}

TEST(CuckooFilter, InsertLookupAndDeterminism) {
  const std::uint64_t n = 10000;
  state::CuckooFilter a(n, 0.01), b(n, 0.01);
  std::uint64_t fresh_a = 0, fresh_b = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    fresh_a += a.insert_new(util::hash_u64(i, 9)) ? 1 : 0;
    fresh_b += b.insert_new(util::hash_u64(i, 9)) ? 1 : 0;
  }
  // Deterministic: the same insert sequence behaves identically (the
  // eviction walk uses an owned seeded rng, no global state).
  EXPECT_EQ(fresh_a, fresh_b);
  // Near-zero false "seen" for fresh keys at this load (16-bit prints).
  EXPECT_GE(fresh_a, n - n / 100);
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    found += a.maybe_contains(util::hash_u64(i, 9)) ? 1 : 0;
  }
  // No false negatives for keys that were admitted (overflowed keys are
  // counted by the filter and surface in the engine's error reporting).
  EXPECT_GE(found + a.overflows(), n);
  a.clear();
  EXPECT_FALSE(a.maybe_contains(util::hash_u64(1, 9)));
}

// --- HashPipe ---------------------------------------------------------------

TEST(HashPipe, ConservesWeightAcrossStoredAndEvicted) {
  state::HashPipeChain hp({.entries_per_stage = 64, .stages = 2, .hash_seed = 0});
  const auto w = make_zipf(2000, 11);
  std::uint64_t pushed = 0;
  for (const std::uint32_t i : w.updates) {
    hp.update(key_of(i), 1, ReduceFn::kSum);
    ++pushed;
  }
  std::uint64_t resident = 0;
  for (const auto& [key, value] : hp.entries()) resident += value;
  // Sum reduces conserve weight exactly: every unit is either resident in
  // some stage slot or accounted in the evicted-weight error bound.
  EXPECT_EQ(resident + hp.evicted_weight(), pushed);
  EXPECT_EQ(hp.stored(), hp.entries().size());
}

TEST(HashPipe, HeavyHittersSurviveEviction) {
  state::HashPipeChain hp({.entries_per_stage = 256, .stages = 2, .hash_seed = 0});
  const auto w = make_zipf(20000, 13);
  for (const std::uint32_t i : w.updates) {
    hp.update(key_of(i), 1, ReduceFn::kSum);
  }
  // The keep-the-larger discipline must retain the heaviest keys; a key
  // may occupy several stage slots, so merge entries() before checking.
  std::map<std::uint64_t, std::uint64_t> merged;
  for (const auto& [key, value] : hp.entries()) merged[key.at(0).as_uint()] += value;
  for (std::uint64_t rank = 0; rank < 8; ++rank) {
    ASSERT_TRUE(merged.count(rank)) << "top-weight key rank " << rank << " evicted";
    // Residency captures most of the key's true weight (some units can be
    // lost while the key was transiently out of the pipeline).
    EXPECT_GE(merged[rank], w.truth[rank] / 2) << "rank " << rank;
  }
}

TEST(HashPipe, ReadMergesStagesAndMarkReportedFiresOnce) {
  state::HashPipeChain hp({.entries_per_stage = 128, .stages = 3, .hash_seed = 0});
  for (int i = 0; i < 5; ++i) hp.update(key_of(1), 2, ReduceFn::kSum);
  const auto v = hp.read(key_of(1), ReduceFn::kSum);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 10u);
  EXPECT_TRUE(hp.mark_reported(key_of(1)));
  EXPECT_FALSE(hp.mark_reported(key_of(1)));
  hp.reset();
  EXPECT_EQ(hp.stored(), 0u);
  EXPECT_EQ(hp.evicted_weight(), 0u);
  EXPECT_FALSE(hp.read(key_of(1), ReduceFn::kSum).has_value());
}

// --- engines ----------------------------------------------------------------

TEST(ReduceEngine, SketchEstimatesWithinEnvelopeOnZipf) {
  for (const std::uint64_t seed : {1ULL, 2018ULL, 0xFEEDULL}) {
    const double eps = 0.005, delta = 0.01;
    state::ReduceEngine eng;
    eng.configure(sketch_spec(eps, delta), ReduceFn::kSum);
    const auto w = make_zipf(30000, seed);
    for (const std::uint32_t i : w.updates) {
      Tuple k = key_of(i);
      const std::uint64_t h = k.hash();
      eng.update(std::move(k), h, 1);
    }
    const double bound = eps * static_cast<double>(w.total);
    std::unordered_map<std::uint64_t, std::uint64_t> drained;
    eng.drain_and_clear(
        [&](Tuple&& k, std::uint64_t v) { drained.emplace(k.at(0).as_uint(), v); });
    ASSERT_FALSE(drained.empty());
    std::size_t heavy = 0, found = 0, in_bound = 0;
    for (std::uint32_t i = 0; i < w.truth.size(); ++i) {
      if (static_cast<double>(w.truth[i]) < bound) break;  // ranks are sorted by weight
      ++heavy;
      const auto it = drained.find(i);
      if (it == drained.end()) continue;
      ++found;
      ASSERT_GE(it->second, w.truth[i]);  // count-min one-sided error
      if (static_cast<double>(it->second - w.truth[i]) <= bound) ++in_bound;
    }
    ASSERT_GT(heavy, 0u);
    EXPECT_EQ(found, heavy) << "heavy key fell out of the store (seed " << seed << ")";
    EXPECT_GE(static_cast<double>(in_bound),
              (1.0 - delta - 0.05) * static_cast<double>(found));
    // Post-drain the engine is empty and reusable.
    EXPECT_EQ(eng.size(), 0u);
  }
}

TEST(ReduceEngine, MinStaysExactUnderSketchSpec) {
  state::ReduceEngine eng;
  eng.configure(sketch_spec(0.01, 0.01), ReduceFn::kMin);
  EXPECT_TRUE(eng.exact());  // documented: zeroed counters cannot encode min
  Tuple k = key_of(5);
  const std::uint64_t h = k.hash();
  eng.update(Tuple(k), h, 9);
  eng.update(Tuple(k), h, 3);
  eng.update(std::move(k), h, 7);
  std::uint64_t got = 0;
  eng.drain_and_clear([&](Tuple&&, std::uint64_t v) { got = v; });
  EXPECT_EQ(got, 3u);
}

// Exact mode keeps all-numeric keys as words and moves the window to Tuple
// keys at its first key holding a string: the drain must still be first
// insertion order with every aggregate, and the next window starts over.
TEST(ReduceEngine, ExactDrainKeepsInsertionOrderAcrossKeyKinds) {
  state::ReduceEngine eng;
  const std::vector<Tuple> keys = {key_of(7), key_of(3), Tuple{{Value{std::string("x.org")}}},
                                   key_of(9)};
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t i : {0u, 1u, 0u, 2u, 3u, 1u}) {
      Tuple k = keys[i];
      const std::uint64_t h = k.hash();
      eng.update(std::move(k), h, i + 1);
    }
    EXPECT_EQ(eng.size(), 4u);
    std::vector<std::pair<Tuple, std::uint64_t>> got;
    eng.drain_and_clear([&](Tuple&& k, std::uint64_t v) { got.emplace_back(std::move(k), v); });
    const std::vector<std::pair<Tuple, std::uint64_t>> want = {
        {keys[0], 2}, {keys[1], 4}, {keys[2], 3}, {keys[3], 4}};
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_EQ(eng.size(), 0u);
  }
}

TEST(DistinctEngine, ExactCountsEachKeyOnceAcrossKeyKinds) {
  state::DistinctEngine eng;
  const Tuple num = key_of(4);
  const Tuple str{{Value{std::string("x.org")}}};
  EXPECT_TRUE(eng.insert_new(num, num.hash()));
  EXPECT_TRUE(eng.insert_new(str, str.hash()));
  EXPECT_FALSE(eng.insert_new(num, num.hash()));
  EXPECT_FALSE(eng.insert_new(str, str.hash()));
  EXPECT_EQ(eng.usage().entries, 2u);
  eng.clear();
  EXPECT_TRUE(eng.insert_new(num, num.hash()));
  EXPECT_EQ(eng.usage().entries, 1u);
}

TEST(ReduceEngine, UsageReportsBytesAndErrorBound) {
  state::ReduceEngine exact;
  Tuple k = key_of(1);
  exact.update(Tuple(k), k.hash(), 1);
  const auto eu = exact.usage();
  EXPECT_EQ(eu.entries, 1u);
  EXPECT_GT(eu.bytes, 0u);
  EXPECT_EQ(eu.error_bound, 0.0);

  state::ReduceEngine sk;
  sk.configure(sketch_spec(0.01, 0.01), ReduceFn::kSum);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Tuple t = key_of(i);
    const std::uint64_t h = t.hash();
    sk.update(std::move(t), h, 1);
  }
  const auto su = sk.usage();
  EXPECT_GT(su.bytes, 0u);
  EXPECT_DOUBLE_EQ(su.error_bound, 0.01 * 1000.0);  // eps * total weight
}

TEST(DistinctEngine, SketchNeverLosesKeysAndBoundsFalsePositives) {
  for (const auto membership :
       {StateSpec::Membership::kBloom, StateSpec::Membership::kCuckoo}) {
    StateSpec spec = sketch_spec(0.01, 0.01);
    spec.membership = membership;
    spec.capacity = 50000;
    state::DistinctEngine eng;
    eng.configure(spec);
    std::uint64_t fp = 0;
    for (std::uint64_t i = 0; i < 50000; ++i) {
      const Tuple t = key_of(i);
      if (!eng.insert_new(t, t.hash())) ++fp;  // every key is fresh
    }
    // A repeat is always recognized (no false negatives).
    for (std::uint64_t i = 0; i < 1000; ++i) {
      const Tuple t = key_of(i);
      EXPECT_FALSE(eng.insert_new(t, t.hash()));
    }
    EXPECT_LE(static_cast<double>(fp) / 50000.0, 3.0 * spec.eps)
        << "membership=" << static_cast<int>(membership);
    const auto u = eng.usage();
    EXPECT_GT(u.bytes, 0u);
    EXPECT_DOUBLE_EQ(u.error_bound, spec.eps);
    eng.clear();
    const Tuple t = key_of(0);
    EXPECT_TRUE(eng.insert_new(t, t.hash()));
  }
}

// --- executor integration ---------------------------------------------------

query::Query reduce_query(int id) {
  using namespace query::dsl;
  return query::QueryBuilder::packet_stream()
      .map({{"dIP", col("dIP")}, {"c", lit(1)}})
      .reduce({"dIP"}, ReduceFn::kSum, "c")
      .build("sketchy", id);
}

std::vector<net::Packet> zipf_packets(std::uint32_t keys, std::uint64_t seed) {
  const auto w = make_zipf(keys, seed);
  std::vector<net::Packet> pkts;
  pkts.reserve(w.updates.size());
  for (const std::uint32_t i : w.updates) {
    pkts.push_back(net::Packet::tcp(0, util::ipv4(10, 0, 0, 1), i + 1, 1000, 80,
                                    net::tcp_flags::kSyn, 40));
  }
  return pkts;
}

TEST(ChainExecutorSketch, DifferentialSketchVsExactReduce) {
  auto q = reduce_query(21);
  ASSERT_EQ(q.validate(), "");
  const auto pkts = zipf_packets(5000, 77);

  stream::ChainExecutor exact(*q.sources()[0]);
  const double eps = 0.01, delta = 0.01;
  stream::ChainExecutor sketch(*q.sources()[0], sketch_spec(eps, delta));
  for (const auto& p : pkts) {
    exact.ingest(query::materialize_tuple(p), 0);
    sketch.ingest(query::materialize_tuple(p), 0);
  }
  std::map<std::uint64_t, std::uint64_t> truth;
  for (const auto& t : exact.end_window()) truth[t.at(0).as_uint()] = t.at(1).as_uint();
  std::map<std::uint64_t, std::uint64_t> est;
  for (const auto& t : sketch.end_window()) est[t.at(0).as_uint()] = t.at(1).as_uint();

  std::uint64_t total = 0;
  for (const auto& [k, v] : truth) total += v;
  const double bound = eps * static_cast<double>(total);
  std::size_t heavy = 0, in_bound = 0;
  for (const auto& [k, v] : truth) {
    if (static_cast<double>(v) < bound) continue;
    ++heavy;
    const auto it = est.find(k);
    ASSERT_NE(it, est.end()) << "heavy key " << k << " missing from sketch drain";
    EXPECT_GE(it->second, v);
    if (static_cast<double>(it->second - v) <= bound) ++in_bound;
  }
  ASSERT_GT(heavy, 0u);
  EXPECT_GE(static_cast<double>(in_bound), (1.0 - delta - 0.05) * static_cast<double>(heavy));
}

TEST(ChainExecutorSketch, ExplicitExactSpecIsBitIdenticalToDefault) {
  auto q = reduce_query(22);
  ASSERT_EQ(q.validate(), "");
  const auto pkts = zipf_packets(2000, 5);

  stream::ChainExecutor dflt(*q.sources()[0]);
  StateSpec exact_spec;  // kExact
  stream::ChainExecutor annotated(*q.sources()[0], exact_spec);
  for (const auto& p : pkts) {
    dflt.ingest(query::materialize_tuple(p), 0);
    annotated.ingest(query::materialize_tuple(p), 0);
  }
  const auto a = dflt.end_window();
  const auto b = annotated.end_window();
  // Same values in the same (first-insertion) drain order — bit-identical.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "position " << i;
}

TEST(ChainExecutorSketch, StateUsageReportsPerEngineBytes) {
  auto q = reduce_query(23);
  ASSERT_EQ(q.validate(), "");
  stream::ChainExecutor exact(*q.sources()[0]);
  stream::ChainExecutor sketch(*q.sources()[0], sketch_spec(0.01, 0.01));
  for (const auto& p : zipf_packets(300, 3)) {
    exact.ingest(query::materialize_tuple(p), 0);
    sketch.ingest(query::materialize_tuple(p), 0);
  }
  const auto eu = exact.state_usage();
  EXPECT_EQ(eu.entries, exact.stateful_entries());
  EXPECT_EQ(eu.entries, 300u);
  EXPECT_GT(eu.bytes, 0u);
  EXPECT_EQ(eu.error_bound, 0.0);
  const auto su = sketch.state_usage();
  EXPECT_GT(su.bytes, 0u);
  EXPECT_GT(su.error_bound, 0.0);
}

// --- planner + runtime propagation ------------------------------------------

TEST(PlannerSketch, SpecFlowsToExecQueriesRegistersAndRuntime) {
  const auto sc = testing::make_scenario();
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(sc.thresholds, util::seconds(3)));
  qs[0].set_state_spec(sketch_spec(0.01, 0.01));

  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  const planner::Plan plan = planner::Planner(cfg).plan(qs, sc.trace);

  // The annotation rides every per-level exec query...
  ASSERT_FALSE(plan.queries.empty());
  for (const auto& pq : plan.queries) {
    for (const auto& [level, exec] : pq.exec_queries) {
      EXPECT_EQ(exec.state_spec(), qs[0].state_spec()) << "level " << level;
    }
  }
  // ...and reduce register sizings switch to the HashPipe pipeline.
  bool any_sketch_sizing = false;
  for (const auto& pq : plan.queries) {
    for (const auto& p : pq.pipelines) {
      for (const auto& [op_idx, rs] : p.sizing) {
        if (rs.sketch) any_sketch_sizing = true;
      }
    }
  }
  EXPECT_TRUE(any_sketch_sizing);

  // End-to-end: the sketched plan replays the trace and still detects the
  // SYN-flood victim (heavy keys survive HashPipe + the SP sketch).
  runtime::Runtime rt(plan);
  bool victim_seen = false;
  std::uint64_t evicted_reported = 0;
  for (const auto& w : rt.run_trace(sc.trace)) {
    for (const auto& r : w.results) {
      for (const auto& t : r.outputs) {
        if (t.at(0).as_uint() == sc.syn_victim) victim_seen = true;
      }
    }
  }
  for (const auto& pipeline : rt.data_plane(0).pipelines()) {
    for (const auto& s : pipeline->stateful_op_stats()) {
      if (s.sketch) evicted_reported += 1;
    }
  }
  EXPECT_TRUE(victim_seen);
  EXPECT_GT(evicted_reported, 0u) << "no stateful op reported a HashPipe backing";
}

// --- parser -----------------------------------------------------------------

TEST(ParserState, SketchAnnotationRoundTrips) {
  constexpr std::string_view text = R"(
query hh id 4 window 3s state sketch(eps=0.02, delta=0.05, capacity=4096, cs, cuckoo) {
  packetStream
    .map(dIP = dIP, c = 1)
    .reduce(keys=(dIP), sum(c))
}
)";
  const auto result = query::parse_queries(text);
  ASSERT_TRUE(result.ok()) << result.errors[0].to_string();
  const StateSpec& s = result.queries[0].state_spec();
  EXPECT_TRUE(s.sketch());
  EXPECT_DOUBLE_EQ(s.eps, 0.02);
  EXPECT_DOUBLE_EQ(s.delta, 0.05);
  EXPECT_EQ(s.capacity, 4096u);
  EXPECT_EQ(s.family, StateSpec::Family::kCountSketch);
  EXPECT_EQ(s.membership, StateSpec::Membership::kCuckoo);
  EXPECT_EQ(s.to_string(), "sketch(eps=0.02, delta=0.05, capacity=4096, cs, cuckoo)");
}

TEST(ParserState, ExactAndDefaultSpecs) {
  const auto annotated = query::parse_queries(
      "query a id 1 window 3s state exact { packetStream.map(dIP = dIP, c = 1)"
      ".reduce(keys=(dIP), sum(c)) }");
  ASSERT_TRUE(annotated.ok()) << annotated.errors[0].to_string();
  EXPECT_FALSE(annotated.queries[0].state_spec().sketch());

  const auto plain = query::parse_queries(
      "query b id 2 window 3s { packetStream.map(dIP = dIP, c = 1)"
      ".reduce(keys=(dIP), sum(c)) }");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.queries[0].state_spec(), StateSpec{});
}

TEST(ParserState, RejectsMalformedSpecs) {
  for (const std::string_view bad : {
           "query a id 1 window 3s state sketch(eps=2) { packetStream.map(c = 1) }",
           "query a id 1 window 3s state sketch(delta=0) { packetStream.map(c = 1) }",
           "query a id 1 window 3s state sketch(capacity=0.5) { packetStream.map(c = 1) }",
           "query a id 1 window 3s state sketch(bogus=1) { packetStream.map(c = 1) }",
           "query a id 1 window 3s state fuzzy { packetStream.map(c = 1) }",
       }) {
    EXPECT_FALSE(query::parse_queries(bad).ok()) << bad;
  }
}

}  // namespace
}  // namespace sonata
