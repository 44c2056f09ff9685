#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/hash.h"
#include "util/ip.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace sonata::util {
namespace {

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of "a" with the standard offset basis.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(Hash, SeedChangesFnv) {
  EXPECT_NE(fnv1a64("sonata", 1), fnv1a64("sonata", 2));
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Hash, FamilyMembersDisagree) {
  HashFamily fam(4);
  int disagreements = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (fam.index(0, k, 1024) != fam.index(1, k, 1024)) ++disagreements;
  }
  // Independent hashes should disagree on ~99.9% of keys.
  EXPECT_GT(disagreements, 950);
}

TEST(Hash, FamilyIsDeterministic) {
  HashFamily a(3, 42), b(3, 42);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(a(1, k), b(1, k));
  }
}

TEST(Hash, IndexWithinBounds) {
  HashFamily fam(2);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(fam.index(0, k, 7), 7u);
  }
}

TEST(Hash, FastModMatchesDivision) {
  Rng rng(99);
  std::vector<std::uint64_t> divisors = {1, 2, 3, 7, 64, 1000, 65536, 98765, 1ULL << 32,
                                         (1ULL << 32) + 1, ~std::uint64_t{0}, (1ULL << 63) + 5};
  for (int i = 0; i < 200; ++i) divisors.push_back(1 + rng() % (1ULL << (1 + i % 63)));
  for (const std::uint64_t d : divisors) {
    const FastMod mod(d);
    const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, ~std::uint64_t{0}, ~std::uint64_t{0} - 1};
    for (const std::uint64_t x : edges) ASSERT_EQ(mod(x), x % d) << x << " % " << d;
    for (int j = 0; j < 2000; ++j) {
      const std::uint64_t x = rng();
      ASSERT_EQ(mod(x), x % d) << x << " % " << d;
      ASSERT_EQ(mod(x >> (j % 64)), (x >> (j % 64)) % d) << d;
    }
  }
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SeedMatters) {
  Rng a(7), b(8);
  EXPECT_NE(a(), b());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.03);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(Zipf, RankOneDominates) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 100000 / 100);  // rank 1 well above uniform share
}

TEST(Zipf, CoversTail) {
  Rng rng(6);
  ZipfSampler zipf(100, 1.0);
  std::set<std::size_t> seen;
  for (int i = 0; i < 100000; ++i) seen.insert(zipf(rng));
  EXPECT_GT(seen.size(), 90u);
}

TEST(Ip, PrefixMasks) {
  const std::uint32_t addr = ipv4(10, 20, 30, 40);
  EXPECT_EQ(ipv4_prefix(addr, 32), addr);
  EXPECT_EQ(ipv4_prefix(addr, 24), ipv4(10, 20, 30, 0));
  EXPECT_EQ(ipv4_prefix(addr, 16), ipv4(10, 20, 0, 0));
  EXPECT_EQ(ipv4_prefix(addr, 8), ipv4(10, 0, 0, 0));
  EXPECT_EQ(ipv4_prefix(addr, 0), 0u);
}

TEST(Ip, PrefixMonotone) {
  // Coarsening commutes: prefix(prefix(a, 16), 8) == prefix(a, 8).
  const std::uint32_t addr = ipv4(192, 168, 7, 9);
  EXPECT_EQ(ipv4_prefix(ipv4_prefix(addr, 16), 8), ipv4_prefix(addr, 8));
}

TEST(Ip, InPrefix) {
  EXPECT_TRUE(ipv4_in_prefix(ipv4(10, 1, 2, 3), ipv4(10, 0, 0, 0), 8));
  EXPECT_FALSE(ipv4_in_prefix(ipv4(11, 1, 2, 3), ipv4(10, 0, 0, 0), 8));
}

TEST(Ip, StringRoundTrip) {
  const std::uint32_t addr = ipv4(203, 0, 113, 77);
  EXPECT_EQ(ipv4_to_string(addr), "203.0.113.77");
  EXPECT_EQ(ipv4_from_string("203.0.113.77"), addr);
}

TEST(Ip, ParseRejectsMalformed) {
  EXPECT_FALSE(ipv4_from_string(""));
  EXPECT_FALSE(ipv4_from_string("1.2.3"));
  EXPECT_FALSE(ipv4_from_string("1.2.3.4.5"));
  EXPECT_FALSE(ipv4_from_string("256.0.0.1"));
  EXPECT_FALSE(ipv4_from_string("a.b.c.d"));
  EXPECT_FALSE(ipv4_from_string("1.2.3.4x"));
}

TEST(Stats, MedianOddEven) {
  std::vector<double> odd{3, 1, 2};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MedianU64) {
  std::vector<std::uint64_t> v{10, 20, 30};
  EXPECT_EQ(median_u64(v), 20u);
  std::vector<std::uint64_t> v2{10, 20};
  EXPECT_EQ(median_u64(v2), 15u);
}

TEST(Stats, Quantiles) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 6.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
}

TEST(Stats, QuantileEdgeCases) {
  // Empty input is defined as 0 for every q.
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.0), 0.0);

  // A single sample is every quantile of itself.
  std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(quantile(one, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(quantile(one, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(quantile(one, 1.0), 7.5);

  // Two samples: the median interpolates linearly between them.
  std::vector<double> two{10.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(two, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(quantile(two, 0.25), 12.5);
  EXPECT_DOUBLE_EQ(quantile(two, 0.75), 17.5);

  // q outside [0,1] clamps rather than reading out of range.
  EXPECT_DOUBLE_EQ(quantile(two, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(two, 2.0), 20.0);

  // Unsorted input is sorted internally.
  std::vector<double> unsorted{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(unsorted, 0.5), 3.0);
}

TEST(Stats, AccumulatorEmpty) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(Stats, AccumulatorSingleSample) {
  Accumulator acc;
  acc.add(-3.5);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), -3.5);
  EXPECT_DOUBLE_EQ(acc.min(), -3.5);
  EXPECT_DOUBLE_EQ(acc.max(), -3.5);
  // Sample variance of one observation is defined as 0, not NaN.
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sum(), -3.5);
}

TEST(Stats, AccumulatorTwoSamples) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 2.0);  // sample variance: ((1)^2+(1)^2)/(2-1)
  EXPECT_DOUBLE_EQ(acc.stddev(), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 4.0);
}

TEST(Stats, AccumulatorNegativeFirstSampleTracksMinMax) {
  // min/max must initialise from the first sample, not from 0.
  Accumulator acc;
  acc.add(5.0);
  acc.add(9.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);  // 0 would be wrong here
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Time, WindowIndex) {
  EXPECT_EQ(window_index(0, seconds(3)), 0u);
  EXPECT_EQ(window_index(seconds(2.9), seconds(3)), 0u);
  EXPECT_EQ(window_index(seconds(3.0), seconds(3)), 1u);
  EXPECT_EQ(window_index(seconds(7.5), seconds(3)), 2u);
}

}  // namespace
}  // namespace sonata::util
