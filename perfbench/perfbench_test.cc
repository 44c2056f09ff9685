// Tests for the benchmark's own logic: the percentile guard, the per-window
// sample selection, the window digest, and the layered single-switch loop
// against Runtime.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "harness.h"
#include "runtime/runtime.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(percentile(v, 90).has_value());  // rank 90 of 99: nine beyond
  v.push_back(99.0);
  ASSERT_TRUE(percentile(v, 90).has_value());  // rank 90 of 100: ten beyond
  EXPECT_DOUBLE_EQ(*percentile(v, 90), 89.0);
  EXPECT_DOUBLE_EQ(*percentile(v, 50), 49.0);
  EXPECT_FALSE(percentile(std::vector<double>(15, 1.0), 50).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, IgnoresSampleOrder) {
  std::vector<double> v;
  for (int i = 119; i >= 0; --i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(*percentile(v, 90), 107.0);
  EXPECT_DOUBLE_EQ(median(v), 59.5);
}

TEST(SmallestThirdPerGroup, KeepsTheSmallestThirdOfEachGroup) {
  const std::vector<double> v = {5, 1, 9, 2, 7, 3, 8, 100, 4, 6, 0, 12, 11, 10};
  const std::vector<std::size_t> g = {0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1};
  const auto out = smallest_third_per_group(v, g, 2);  // group 2 is out of range
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], (std::vector<double>{0, 1, 2}));  // of 5 1 2 8 4 6 0 12 11
  EXPECT_EQ(out[1], (std::vector<double>{3, 7}));     // of 9 7 3 10: rounded up
}

// A small slice of the evaluation workload: its first seven windows, which
// include the first attack windows and a refinement install.
struct Small {
  Workload w = make_workload(*find_spec("sonata-fleet"), 7);
  sonata::planner::Plan plan;
  std::vector<sonata::query::Query> queries = w.queries();
  Small() {
    sonata::planner::Planner planner(w.planner_config());
    plan = planner.plan(queries, w.training);
  }
};

Small& small() {
  static Small s;
  return s;
}

constexpr std::size_t kSmallWindows = 7;

TEST(Digest, StableAcrossReplaysAndSensitiveToResults) {
  Small& s = small();
  std::vector<std::uint64_t> first, second;
  for (auto* out : {&first, &second}) {
    sonata::runtime::Runtime runtime(s.plan, kBatch);
    for (std::size_t win = 0; win < kSmallWindows; ++win) {
      out->push_back(window_digest(runtime.process_window(s.w.window(win))));
    }
  }
  EXPECT_EQ(first, second);

  sonata::runtime::Runtime runtime(s.plan, kBatch);
  for (std::size_t win = 0; win + 1 < kSmallWindows; ++win) {
    (void)runtime.process_window(s.w.window(win));
  }
  sonata::runtime::WindowStats ws = runtime.process_window(s.w.window(kSmallWindows - 1));
  const std::uint64_t before = window_digest(ws);
  ASSERT_FALSE(ws.results.empty());
  ws.results.front().outputs.emplace_back(sonata::query::Tuple{1u});
  EXPECT_NE(window_digest(ws), before);
  ws.results.front().outputs.pop_back();
  ++ws.tuples_to_sp;
  EXPECT_NE(window_digest(ws), before);
  --ws.tuples_to_sp;
  ws.window_index += 100;  // not part of what a window computed
  EXPECT_EQ(window_digest(ws), before);
}

void expect_layered_equals_runtime(const sonata::planner::Plan& plan, const Workload& w,
                                   SpanLog* spans) {
  sonata::runtime::Runtime runtime(plan, kBatch);
  LayeredRuntime layered(plan, kBatch, spans);
  for (std::size_t win = 0; win < kSmallWindows; ++win) {
    const auto want = runtime.process_window(w.window(win));
    const auto got = layered.run_window(w.window(win));
    EXPECT_EQ(window_digest(got), window_digest(want)) << "window " << win;
    EXPECT_EQ(got.control_update_millis, want.control_update_millis) << "window " << win;
    EXPECT_EQ(check_window(w, got, win), check_window(w, want, win));
  }
}

TEST(LayeredRuntime, UntracedEqualsRuntime) {
  expect_layered_equals_runtime(small().plan, small().w, nullptr);
}

TEST(LayeredRuntime, TracedEqualsRuntimeAndRecordsEveryLayer) {
  SpanLog spans;
  expect_layered_equals_runtime(small().plan, small().w, &spans);
  std::vector<std::string> names;
  for (const auto& t : spans.totals()) {
    EXPECT_LE(t.self_ns, t.total_ns) << t.name;
    if (t.calls > 0) names.push_back(t.name);
  }
  for (const char* want : {"window", "pisa.extract", "pisa.switch", "runtime.sp_deliver",
                           "runtime.poll", "runtime.close_levels", "pisa.reset",
                           "instrument.report.encode", "instrument.report.decode"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end()) << want;
  }
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const std::string& n) {
    return n.starts_with("instrument.pipeline.q");
  }));
  EXPECT_TRUE(std::any_of(names.begin(), names.end(), [](const std::string& n) {
    return n.starts_with("stream.ingest.q");
  }));
}

TEST(LayeredRuntime, RawMirrorPlanEqualsRuntime) {
  const Workload w = make_workload(allsp_spec(), 7);
  const auto queries = w.queries();
  sonata::planner::Planner planner(w.planner_config());
  const auto plan = planner.plan(queries, w.training);
  SpanLog spans;
  expect_layered_equals_runtime(plan, w, &spans);
}

TEST(Workload, SameSeedSamePackets) {
  const Workload a = make_workload(*find_spec("sonata-fleet"), 11);
  const Workload b = make_workload(*find_spec("sonata-fleet"), 11);
  ASSERT_EQ(a.pass.size(), b.pass.size());
  EXPECT_EQ(a.bounds, b.bounds);
  for (std::size_t i = 0; i < a.pass.size(); i += 997) EXPECT_EQ(a.pass[i].ts, b.pass[i].ts);
  const std::vector<sonata::net::Packet> two = looped(a, 2);
  ASSERT_EQ(two.size(), 2 * a.pass.size());
  EXPECT_EQ(two[a.pass.size()].ts, a.pass[0].ts + kPassWindows * kWindow);
}

}  // namespace
}  // namespace perfbench
