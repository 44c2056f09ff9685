// SIMD differential suite: every vector kernel in the datapath must be
// bit-identical to its guarded scalar fallback, for every input shape the
// datapath can form — full 8/16-wide chunks, short tails, unaligned
// subspans, string-carrying tuples that force the scalar path mid-batch.
// The tests flip dispatch with util::force_scalar_for_test so both paths
// run in one process on one machine; on CPUs without AVX2 both legs decide
// scalar and the comparisons are trivially (and correctly) green.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/packet.h"
#include "pisa/extract.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "query/field.h"
#include "query/tuple.h"
#include "runtime/fleet.h"
#include "test_trace.h"
#include "trace/trace.h"
#include "util/cpu.h"
#include "util/ip.h"

namespace sonata {
namespace {

// Forces one dispatch level for a scope, restoring environment-driven
// dispatch on exit so test order cannot leak a forced level.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool scalar) { util::force_scalar_for_test(scalar); }
  ~ScopedSimd() { util::force_scalar_for_test(false, /*reset_to_env=*/true); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;
};

// Sizes that cover every tail class of the 16-packet extract chunks:
// empty, sub-chunk, exact chunks, chunk+tail.
const std::vector<std::size_t>& shape_sizes() {
  static const std::vector<std::size_t> sizes = {0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 64, 250};
  return sizes;
}

// A packet mix that exercises every extraction column: plain TCP/UDP
// headers, telnet payloads, DNS tunnel queries (qname strings + parsed DNS
// numerics), and DNS reflection responses.
std::vector<net::Packet> extraction_trace() {
  trace::BackgroundConfig bg;
  bg.duration_sec = 2.0;
  bg.flows_per_sec = 400.0;
  bg.telnet_fraction = 0.2;
  trace::TraceBuilder builder(7);
  builder.background(bg);
  trace::DnsTunnelConfig tun;
  tun.client = util::ipv4(10, 1, 2, 3);
  tun.resolver = util::ipv4(8, 8, 8, 8);
  tun.start_sec = 0.2;
  tun.duration_sec = 1.5;
  builder.add(tun);
  trace::DnsReflectionConfig refl;
  refl.victim = util::ipv4(99, 1, 0, 25);
  refl.start_sec = 0.2;
  refl.duration_sec = 1.5;
  refl.pps = 400.0;
  builder.add(refl);
  return builder.build();
}

TEST(SimdExtract, BatchMatchesPerPacketMaterializeForAllShapes) {
  const auto pkts = extraction_trace();
  ASSERT_GT(pkts.size(), 300u);
  const std::span<const net::Packet> all(pkts);
  for (const bool scalar : {true, false}) {
    ScopedSimd guard(scalar);
    std::vector<query::Tuple> out;
    for (const std::size_t n : shape_sizes()) {
      // Offsets make the chunk start anywhere in the trace, so the batch
      // sees arbitrary (unaligned) packet addresses and packet mixes.
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{97}}) {
        if (offset + n > all.size()) continue;
        const auto chunk = all.subspan(offset, n);
        pisa::extract_batch(chunk, out);
        ASSERT_EQ(out.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], query::materialize_tuple(chunk[i]))
              << "scalar=" << scalar << " n=" << n << " offset=" << offset << " i=" << i;
        }
      }
    }
    // Warm-slot reuse: extracting a second, different chunk into the same
    // vector must fully overwrite every column.
    pisa::extract_batch(all.subspan(0, 16), out);
    pisa::extract_batch(all.subspan(200, 16), out);
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_EQ(out[i], query::materialize_tuple(all[200 + i])) << "scalar=" << scalar << " i=" << i;
    }
  }
}

TEST(SimdExtract, ScalarAndVectorProduceIdenticalTuples) {
  const auto pkts = extraction_trace();
  const auto chunk = std::span<const net::Packet>(pkts).subspan(0, std::min<std::size_t>(pkts.size(), 200));
  std::vector<query::Tuple> scalar_out, vector_out;
  {
    ScopedSimd guard(/*scalar=*/true);
    pisa::extract_batch(chunk, scalar_out);
  }
  {
    ScopedSimd guard(/*scalar=*/false);
    pisa::extract_batch(chunk, vector_out);
  }
  ASSERT_EQ(scalar_out.size(), vector_out.size());
  for (std::size_t i = 0; i < scalar_out.size(); ++i) {
    ASSERT_EQ(scalar_out[i], vector_out[i]) << "i=" << i;
  }
}

TEST(SimdDispatch, EnvOverrideForcesScalar) {
  ASSERT_EQ(::setenv("SONATA_NO_AVX2", "1", 1), 0);
  util::force_scalar_for_test(false, /*reset_to_env=*/true);  // re-decide from env
  EXPECT_FALSE(util::avx2_enabled());
  EXPECT_STREQ(util::simd_level(), "scalar");
  ::unsetenv("SONATA_NO_AVX2");
  util::force_scalar_for_test(false, /*reset_to_env=*/true);
}

void expect_identical_windows(const std::vector<runtime::WindowStats>& a,
                              const std::vector<runtime::WindowStats>& b,
                              const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t w = 0; w < a.size(); ++w) {
    SCOPED_TRACE(label + " window " + std::to_string(w));
    EXPECT_EQ(a[w].packets, b[w].packets);
    EXPECT_EQ(a[w].tuples_to_sp, b[w].tuples_to_sp);
    EXPECT_EQ(a[w].raw_mirror_packets, b[w].raw_mirror_packets);
    EXPECT_EQ(a[w].overflow_records, b[w].overflow_records);
    ASSERT_EQ(a[w].results.size(), b[w].results.size());
    for (std::size_t r = 0; r < a[w].results.size(); ++r) {
      EXPECT_EQ(a[w].results[r].qid, b[w].results[r].qid);
      EXPECT_EQ(a[w].results[r].outputs, b[w].results[r].outputs);
    }
    EXPECT_EQ(a[w].winners, b[w].winners);
  }
}

// End-to-end: whole windows must be bit-identical across dispatch level,
// worker count, and batch size — one 12-way differential. The scalar serial
// per-packet run is the reference everything else must reproduce.
TEST(SimdWindows, BitIdenticalAcrossDispatchThreadsAndBatch) {
  const testing::Scenario& sc = testing::make_scenario();
  const auto qs = queries::evaluation_queries(sc.thresholds, util::seconds(3));
  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  const planner::Plan plan = planner::Planner(cfg).plan(qs, sc.trace);

  std::vector<runtime::WindowStats> reference;
  {
    ScopedSimd guard(/*scalar=*/true);
    runtime::Fleet fleet(plan, 4, 0, 1);
    reference = fleet.run_trace(sc.trace);
  }
  ASSERT_FALSE(reference.empty());

  for (const bool scalar : {true, false}) {
    ScopedSimd guard(scalar);
    for (const std::size_t threads : {0u, 2u}) {
      for (const std::size_t batch : {1u, 256u}) {
        if (scalar && threads == 0 && batch == 1) continue;  // the reference itself
        runtime::Fleet fleet(plan, 4, threads, batch);
        const auto windows = fleet.run_trace(sc.trace);
        expect_identical_windows(reference, windows,
                                 std::string(scalar ? "scalar" : "avx2") + " threads=" +
                                     std::to_string(threads) + " batch=" + std::to_string(batch));
      }
    }
  }
}

}  // namespace
}  // namespace sonata
