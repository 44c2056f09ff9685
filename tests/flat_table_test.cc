// Tests for util::FlatTable / FlatMap / FlatSet — the SP keyed-state
// engine. Covers the contracts the stream processor depends on:
//   * insert/find/erase correctness, including tombstone reuse,
//   * growth across resize thresholds with the dense array never moving
//     keys out of insertion order,
//   * collision-heavy adversarial probing (caller-supplied equal hashes),
//   * drain determinism versus a std::unordered_map reference,
//   * clear() reusing capacity: ZERO allocations in steady-state windows,
//     asserted through an instrumented global allocator.

#include "util/flat_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <unordered_map>
#include <vector>

#include "query/tuple.h"
#include "util/hash.h"

// ---------------------------------------------------------------------------
// Instrumented global allocator: counts every operator-new call so the
// steady-state test can assert the flat tables touch the allocator zero
// times once warm. Replacing these in one TU instruments the whole test
// binary; the counter is only examined around single-threaded regions.
static std::atomic<std::uint64_t> g_alloc_calls{0};

void* operator new(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sonata {
namespace {

using query::Tuple;
using util::FlatMap;
using util::FlatSet;
using util::FlatWordSet;

Tuple key2(std::uint64_t a, std::uint64_t b) {
  Tuple t;
  t.values.emplace_back(a);
  t.values.emplace_back(b);
  return t;
}

Tuple key1(std::uint64_t a) {
  Tuple t;
  t.values.emplace_back(a);
  return t;
}

TEST(FlatTableTest, InsertFindBasic) {
  FlatMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 1000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Tuple k = key2(i, i * 3);
    const std::uint64_t h = k.hash();
    auto [slot, inserted] = m.try_emplace(std::move(k), h, i + 7);
    ASSERT_TRUE(inserted);
    EXPECT_EQ(*slot, i + 7);
  }
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Tuple k = key2(i, i * 3);
    const std::uint64_t* v = m.find(k, k.hash());
    ASSERT_NE(v, nullptr) << "key " << i;
    EXPECT_EQ(*v, i + 7);
  }
  const Tuple absent = key2(kN + 1, 0);
  EXPECT_EQ(m.find(absent, absent.hash()), nullptr);
  EXPECT_FALSE(m.contains(absent, absent.hash()));
}

TEST(FlatTableTest, TryEmplaceExistingDoesNotMoveKey) {
  FlatMap<std::uint64_t> m;
  Tuple k = key1(42);
  const std::uint64_t h = k.hash();
  ASSERT_TRUE(m.try_emplace(Tuple(k), h, 1).second);

  // Second emplace of the same key: not inserted, value untouched, and the
  // caller's tuple must NOT have been moved from.
  Tuple again = key1(42);
  auto [slot, inserted] = m.try_emplace(std::move(again), h, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 1u);
  EXPECT_EQ(again.values.size(), 1u);
  EXPECT_EQ(again.at(0).as_uint(), 42u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatTableTest, EraseAndTombstoneReuse) {
  FlatMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 512;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Tuple k = key1(i);
    m.try_emplace(Tuple(k), k.hash(), i);
  }
  // Erase the even keys.
  for (std::uint64_t i = 0; i < kN; i += 2) {
    const Tuple k = key1(i);
    EXPECT_TRUE(m.erase(k, k.hash()));
    EXPECT_FALSE(m.erase(k, k.hash()));  // double erase is a no-op
  }
  EXPECT_EQ(m.size(), kN / 2);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Tuple k = key1(i);
    EXPECT_EQ(m.contains(k, k.hash()), i % 2 == 1) << "key " << i;
  }
  // Reinsert through the tombstones; everything must be reachable again.
  for (std::uint64_t i = 0; i < kN; i += 2) {
    const Tuple k = key1(i);
    ASSERT_TRUE(m.try_emplace(Tuple(k), k.hash(), i + 1000).second);
  }
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Tuple k = key1(i);
    const auto* v = m.find(k, k.hash());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i % 2 == 0 ? i + 1000 : i);
  }
}

TEST(FlatTableTest, GrowthAcrossResizeThresholds) {
  FlatMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 100000;  // forces many doublings from 16
  for (std::uint64_t i = 0; i < kN; ++i) {
    Tuple k = key2(i ^ 0x9E3779B9u, i);
    const std::uint64_t h = k.hash();
    m.try_emplace(std::move(k), h, i);
  }
  EXPECT_EQ(m.size(), kN);
  EXPECT_GT(m.rehashes(), 4u);
  EXPECT_LE(m.load_factor(), 7.0 / 8.0 + 1e-9);
  for (std::uint64_t i = 0; i < kN; i += 997) {
    const Tuple k = key2(i ^ 0x9E3779B9u, i);
    const auto* v = m.find(k, k.hash());
    ASSERT_NE(v, nullptr) << "key " << i;
    EXPECT_EQ(*v, i);
  }
  // Steady state: clear + refill with the same cardinality must not rehash.
  const std::uint64_t rehashes_warm = m.rehashes();
  m.clear();
  for (std::uint64_t i = 0; i < kN; ++i) {
    Tuple k = key2(i ^ 0x9E3779B9u, i);
    const std::uint64_t h = k.hash();
    m.try_emplace(std::move(k), h, i);
  }
  EXPECT_EQ(m.rehashes(), rehashes_warm);
}

TEST(FlatTableTest, AdversarialEqualHashes) {
  // The table trusts caller-supplied hashes; give every key the SAME one.
  // Every probe then walks one collision chain and must fall back to full
  // key equality. This exercises full chunks, triangular probing past many
  // occupied groups, growth under a degenerate chain, and tombstones in it.
  FlatMap<std::uint64_t> m;
  constexpr std::uint64_t kN = 600;
  constexpr std::uint64_t kHash = 0x3F;  // low 7 bits all land in one lane class
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(m.try_emplace(key1(i), kHash, i).second);
  }
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto* v = m.find(key1(i), kHash);
    ASSERT_NE(v, nullptr) << "key " << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(m.contains(key1(kN + 5), kHash));
  // Tombstone a third of the chain, then verify the remainder still probes
  // through (an empty slot must not appear mid-chain).
  for (std::uint64_t i = 0; i < kN; i += 3) EXPECT_TRUE(m.erase(key1(i), kHash));
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(m.contains(key1(i), kHash), i % 3 != 0) << "key " << i;
  }
  // Reinsert; tombstone reuse keeps the chain intact.
  for (std::uint64_t i = 0; i < kN; i += 3) {
    ASSERT_TRUE(m.try_emplace(key1(i), kHash, i * 2).second);
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto* v = m.find(key1(i), kHash);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i % 3 == 0 ? i * 2 : i);
  }
}

TEST(FlatTableTest, DrainIsInsertionOrderedAndMatchesUnorderedMapReference) {
  // Reduce-style aggregation mirrored into std::unordered_map. The flat
  // table must hold exactly the reference's contents AND drain in first-
  // occurrence order — the determinism contract window outputs rely on.
  std::mt19937_64 rng(42);
  FlatMap<std::uint64_t> flat;
  std::unordered_map<Tuple, std::uint64_t, query::TupleHasher> ref;
  std::vector<Tuple> first_occurrence;
  for (int i = 0; i < 20000; ++i) {
    const Tuple k = key2(rng() % 3000, rng() % 7);
    const std::uint64_t delta = rng() % 100;
    const std::uint64_t h = k.hash();
    auto [slot, inserted] = flat.try_emplace(Tuple(k), h, delta);
    if (!inserted) *slot += delta;
    auto [it, ref_inserted] = ref.try_emplace(k, 0);
    it->second += delta;
    if (ref_inserted) first_occurrence.push_back(k);
  }
  ASSERT_EQ(flat.size(), ref.size());
  const auto entries = flat.entries();
  ASSERT_EQ(entries.size(), first_occurrence.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key, first_occurrence[i]) << "drain position " << i;
    EXPECT_EQ(entries[i].value, ref.at(entries[i].key));
  }
}

TEST(FlatTableTest, FuzzDifferentialAgainstUnorderedMap) {
  // Randomized insert/erase/lookup/clear sequence, checked move-for-move
  // against std::unordered_map.
  std::mt19937_64 rng(20260805);
  FlatMap<std::uint64_t> flat;
  std::unordered_map<Tuple, std::uint64_t, query::TupleHasher> ref;
  constexpr std::uint64_t kKeySpace = 700;  // small: collisions + re-erase hit often
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t r = rng() % 100;
    const Tuple k = key2(rng() % kKeySpace, rng() % 3);
    const std::uint64_t h = k.hash();
    if (r < 55) {
      const std::uint64_t v = rng();
      const bool fi = flat.try_emplace(Tuple(k), h, v).second;
      const bool ri = ref.try_emplace(k, v).second;
      ASSERT_EQ(fi, ri) << "step " << step;
    } else if (r < 80) {
      ASSERT_EQ(flat.erase(k, h), ref.erase(k) == 1) << "step " << step;
    } else if (r < 99) {
      const auto* fv = flat.find(k, h);
      const auto rit = ref.find(k);
      ASSERT_EQ(fv != nullptr, rit != ref.end()) << "step " << step;
      if (fv != nullptr) ASSERT_EQ(*fv, rit->second) << "step " << step;
    } else {
      flat.clear();
      ref.clear();
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
  }
  // Final full sweep both ways.
  for (const auto& e : flat.entries()) {
    const auto it = ref.find(e.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(e.value, it->second);
  }
  for (const auto& [k, v] : ref) {
    const auto* fv = flat.find(k, k.hash());
    ASSERT_NE(fv, nullptr);
    EXPECT_EQ(*fv, v);
  }
}

TEST(FlatTableTest, ClearReusesCapacityWithZeroSteadyStateAllocations) {
  // The window loop contract: after one warm-up window at a cardinality,
  // every later window at that cardinality never touches the allocator.
  // Keys use inline ValueVec storage (<= 4 numeric values), so the only
  // possible allocations are the table's own — which clear() must avoid.
  FlatMap<std::uint64_t> agg;
  FlatSet seen;
  constexpr std::uint64_t kKeys = 4096;
  const auto run_window = [&] {
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      Tuple k = key2(i * 2654435761u, i);
      const std::uint64_t h = k.hash();
      auto [slot, inserted] = agg.try_emplace(std::move(k), h, 1);
      if (!inserted) ++*slot;
      Tuple s = key1(i % 512);
      const std::uint64_t sh = s.hash();
      seen.insert(std::move(s), sh);
    }
    agg.clear();
    seen.clear();
  };
  run_window();  // warm-up: grows both tables to their steady capacity

  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  run_window();
  run_window();
  const std::uint64_t after = g_alloc_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state windows must not allocate";
}

TEST(FlatTableTest, ProbeTallyDrains) {
  FlatMap<std::uint64_t> m;
  std::uint64_t tally[FlatMap<std::uint64_t>::kProbeTallyMax + 1];
  m.drain_probe_tally(tally);  // discard construction-time zeros
  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    Tuple k = key1(i);
    const std::uint64_t h = k.hash();
    m.try_emplace(std::move(k), h, i);
  }
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const Tuple k = key1(i);
    ASSERT_TRUE(m.contains(k, k.hash()));
  }
  m.drain_probe_tally(tally);
  std::uint64_t total = 0;
  for (std::size_t d = 0; d <= FlatMap<std::uint64_t>::kProbeTallyMax; ++d) total += tally[d];
  // Every keyed op tallies at least once (grow-path retries may add more).
  EXPECT_GE(total, 2 * kOps);
  // Draining zeroes the tally.
  m.drain_probe_tally(tally);
  for (std::size_t d = 0; d <= FlatMap<std::uint64_t>::kProbeTallyMax; ++d) {
    EXPECT_EQ(tally[d], 0u);
  }
}

TEST(FlatSetTest, InsertContainsClear) {
  FlatSet s;
  EXPECT_TRUE(s.insert(key1(1)));
  EXPECT_TRUE(s.insert(key1(2)));
  EXPECT_FALSE(s.insert(key1(1)));  // duplicate
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(key1(1)));
  EXPECT_FALSE(s.contains(key1(3)));
  ASSERT_EQ(s.entries().size(), 2u);
  EXPECT_EQ(s.entries()[0].key, key1(1));  // insertion order
  EXPECT_EQ(s.entries()[1].key, key1(2));
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(key1(1)));
  EXPECT_TRUE(s.insert(key1(1)));  // reusable after clear
}

TEST(FlatSetTest, StringKeys) {
  // String-valued tuples (DNS names) exercise the shared_ptr alternative
  // and non-trivial key equality.
  FlatSet s;
  Tuple a;
  a.values.emplace_back(query::Value(std::string("evil.example.")));
  Tuple a2;
  a2.values.emplace_back(query::Value(std::string("evil.example.")));
  Tuple b;
  b.values.emplace_back(query::Value(std::string("benign.example.")));
  EXPECT_TRUE(s.insert(Tuple(a)));
  EXPECT_FALSE(s.insert(Tuple(a2)));  // equal content, distinct buffer
  EXPECT_TRUE(s.insert(Tuple(b)));
  EXPECT_TRUE(s.contains(a2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(FlatWordSetTest, InsertFindClearAndReset) {
  // Keys of two words; `same` vetoes position 1, standing in for a string
  // column whose words match but whose bytes do not.
  FlatWordSet s(2);
  const auto any = [](std::size_t) { return true; };
  const std::uint64_t a[] = {1, 2};
  const std::uint64_t b[] = {3, 4};
  EXPECT_EQ(s.insert(a, 7, any), std::make_pair(std::size_t{0}, true));
  EXPECT_EQ(s.insert(b, 7, any), std::make_pair(std::size_t{1}, true));  // same hash
  EXPECT_EQ(s.insert(a, 7, any), std::make_pair(std::size_t{0}, false));
  EXPECT_EQ(s.insert(b, 7, [](std::size_t e) { return e != 1; }),
            std::make_pair(std::size_t{2}, true));
  EXPECT_EQ(s.key(2)[0], 3u);
  EXPECT_EQ(s.hashes()[2], 7u);
  // Grow past many rehashes, then clear a large set (index wipe) and a
  // small one in a large index (per-entry unlink): both leave no entry.
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const std::uint64_t key[] = {k, k};
    s.insert(key, util::hash_u64(k, 0), any);
  }
  for (const std::size_t keep : {5003u, 3u, 3u}) {
    s.clear();
    EXPECT_TRUE(s.empty());
    for (std::uint64_t k = 0; k < keep; ++k) {
      const std::uint64_t key[] = {k, k};
      EXPECT_EQ(s.find(key, util::hash_u64(k, 0), any), FlatWordSet::npos);
      EXPECT_TRUE(s.insert(key, util::hash_u64(k, 0), any).second);
    }
    EXPECT_EQ(s.size(), keep);
  }
  s.reset(1);
  EXPECT_TRUE(s.empty());
  const std::uint64_t one[] = {9};
  EXPECT_TRUE(s.insert(one, 9, any).second);
  EXPECT_EQ(s.find(one, 9, any), 0u);
}

}  // namespace
}  // namespace sonata
