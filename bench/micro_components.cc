// Component micro-benchmarks: per-packet costs of the simulator's moving
// parts (parser/materialization, switch pipelines, register chains, stream
// operators, expression evaluation) and the planner itself. These are the
// numbers to watch when extending Sonata — regressions here make the
// figure benchmarks crawl.
#include <benchmark/benchmark.h>

#include "common.h"
#include "net/wire.h"
#include "util/ip.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/plan_install.h"
#include "runtime/stream_processor.h"
#include "stream/executor.h"
#include "trace/trace.h"

using namespace sonata;

namespace {

std::vector<net::Packet> small_trace() {
  trace::BackgroundConfig bg;
  bg.duration_sec = 3.0;
  bg.flows_per_sec = 400.0;
  return trace::TraceBuilder(7).background(bg).build();
}

void BM_MaterializeTuple(benchmark::State& state) {
  const auto pkts = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::materialize_tuple(pkts[i]));
    i = (i + 1) % pkts.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaterializeTuple);

void BM_WireSerializeParse(benchmark::State& state) {
  const auto pkts = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto frame = net::serialize(pkts[i]);
    benchmark::DoNotOptimize(net::parse(frame));
    i = (i + 1) % pkts.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireSerializeParse);

void BM_RegisterChainUpdate(benchmark::State& state) {
  pisa::RegisterChainConfig cfg;
  cfg.entries_per_register = 65536;
  cfg.depth = static_cast<int>(state.range(0));
  pisa::RegisterChain chain(cfg);
  std::uint64_t k = 0;
  for (auto _ : state) {
    query::Tuple key{{query::Value{k++ & 0xffff}}};
    benchmark::DoNotOptimize(chain.update(key, 1, query::ReduceFn::kSum));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegisterChainUpdate)->Arg(1)->Arg(2)->Arg(4);

// The drivers' switch call: Switch::process_batch on 256-tuple batches of
// the eval-8 Sonata plan (refinement levels included), with the winners the
// stream processor installs after two warm-up windows. Registers reset
// (untimed) at the end of each replayed window.
void BM_SwitchBatchEvalPlan(benchmark::State& state) {
  bench::Options opts;
  opts.scale = 0.25;
  const bench::Workload w = bench::make_eval_workload(opts);
  const auto qs = queries::evaluation_queries(w.thresholds, w.window);
  planner::PlannerConfig cfg;
  cfg.window = w.window;
  cfg.search_node_cap = 10000;
  const planner::Plan plan = planner::Planner(cfg).plan(qs, w.trace);
  pisa::Switch sw(plan.switch_config);
  runtime::PipelineBuild build = runtime::build_pipelines(plan, {});
  if (!sw.install(std::move(build.pipelines), build.resources).empty()) std::abort();
  runtime::StreamProcessor sp(plan);

  const auto windows = trace::split_windows(w.trace, w.window);
  if (windows.size() < 4) std::abort();
  const auto tuples_of = [](std::span<const net::Packet> pkts) {
    std::vector<query::Tuple> out;
    out.reserve(pkts.size());
    for (const auto& p : pkts) out.push_back(query::materialize_tuple(p));
    return out;
  };
  pisa::EmitSink sink;
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<query::Tuple> tuples = tuples_of(windows[i]);
    sink.clear();
    sw.process_batch(tuples, sink);
    sp.deliver_batch(sink.records());
    if (sp.wants_raw_mirror()) sp.deliver_raw_batch(tuples);
    sp.poll_switch(sw);
    runtime::WindowStats stats;
    pisa::Switch* const switches[] = {&sw};
    sp.close_levels(stats, switches);
    sw.reset_all_registers();
  }

  constexpr std::size_t kBatch = 256;
  const std::vector<query::Tuple> tuples = tuples_of(windows[3]);
  std::size_t off = 0;
  std::int64_t items = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, tuples.size() - off);
    sink.clear();
    sw.process_batch({tuples.data() + off, n}, sink);
    benchmark::DoNotOptimize(sink.records().data());
    items += static_cast<std::int64_t>(n);
    off += n;
    if (off == tuples.size()) {
      state.PauseTiming();
      sw.reset_all_registers();
      off = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_SwitchBatchEvalPlan);

void BM_StreamExecutorQuery1(benchmark::State& state) {
  const auto pkts = small_trace();
  queries::Thresholds th;
  const auto q = queries::make_newly_opened_tcp(th, util::seconds(3));
  stream::QueryExecutor exec(q);
  std::vector<query::Tuple> tuples;
  for (const auto& p : pkts) tuples.push_back(query::materialize_tuple(p));
  std::size_t i = 0;
  for (auto _ : state) {
    exec.ingest_source_tuple(tuples[i]);
    i = (i + 1) % tuples.size();
    if (i == 0) benchmark::DoNotOptimize(exec.end_window());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamExecutorQuery1);

void BM_ExprEvaluation(benchmark::State& state) {
  using namespace query::dsl;
  const auto schema = query::source_schema();
  const auto pred = (col("proto") == lit(6) && col("tcp.flags") == lit(2));
  const auto bound = pred->bind(schema);
  const auto t = query::materialize_tuple(
      net::Packet::tcp(0, 1, 2, 3, 4, net::tcp_flags::kSyn, 40));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEvaluation);

void BM_PlannerSingleQuery(benchmark::State& state) {
  trace::BackgroundConfig bg;
  bg.duration_sec = 9.0;
  bg.flows_per_sec = 300.0;
  trace::TraceBuilder builder(5);
  builder.background(bg);
  trace::SynFloodConfig flood;
  flood.victim = util::ipv4(99, 1, 2, 3);
  flood.start_sec = 1.0;
  flood.duration_sec = 7.0;
  flood.pps = 1500;
  builder.add(flood);
  const auto trace = builder.build();
  const auto windows = planner::materialize_windows(trace, util::seconds(3));
  queries::Thresholds th;
  th.newly_opened = 800;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));
  planner::PlannerConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner::Planner(cfg).plan_windows(qs, windows));
  }
}
BENCHMARK(BM_PlannerSingleQuery)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
