// Component micro-benchmarks: per-packet costs of the simulator's moving
// parts (parser/materialization, switch pipelines, register chains, stream
// operators, expression evaluation) and the planner itself. These are the
// numbers to watch when extending Sonata — regressions here make the
// figure benchmarks crawl.
#include <benchmark/benchmark.h>

#include <atomic>
#include <deque>
#include <thread>

#include "common.h"
#include "net/wire.h"
#include "util/hash.h"
#include "util/ip.h"
#include "pisa/switch.h"
#include "planner/install.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/plan_install.h"
#include "runtime/stream_processor.h"
#include "runtime/window_merge.h"
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

// Runs the shared close's tasks on the calling thread plus `threads - 1`
// spinning helpers (a stand-in for the Fleet's idle workers).
class ClosePool {
 public:
  explicit ClosePool(std::size_t threads) {
    for (std::size_t slot = 1; slot < threads; ++slot) {
      helpers_.emplace_back([this, slot] {
        std::uint64_t seen = 0;
        while (!stop_.load(std::memory_order_acquire)) {
          if (generation_.load(std::memory_order_acquire) == seen) {
            std::this_thread::yield();
            continue;
          }
          ++seen;
          work(slot);
          idle_.fetch_add(1, std::memory_order_release);
        }
      });
    }
  }
  ~ClosePool() {
    stop_.store(true, std::memory_order_release);
    for (auto& h : helpers_) h.join();
  }
  ClosePool(const ClosePool&) = delete;
  ClosePool& operator=(const ClosePool&) = delete;

  // Returns once every helper has left this round.
  void run(std::size_t count, const util::Task& task) {
    task_ = &task;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    idle_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    work(0);
    while (idle_.load(std::memory_order_acquire) != helpers_.size()) {
    }
  }

 private:
  void work(std::size_t slot) {
    for (std::size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < count_;) {
      (*task_)(i, slot);
    }
  }

  std::vector<std::thread> helpers_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> idle_{0};
  const util::Task* task_ = nullptr;
  std::size_t count_ = 0;
};

// The shared window close (StreamProcessor::close_window) on the eval-8
// Sonata plan over 4 switches, at range(0) threads: each query's record
// delivery, poll fold + SP ingest and level close, then the serial
// install epilogue. The switches hold a window of traffic routed like the
// Fleet's and carry the winners installed after two warm-up windows; each
// iteration re-polls their registers and copies their records (untimed),
// then closes. Reported per polled register entry and per record.
void BM_WindowClose(benchmark::State& state) {
  constexpr std::size_t kShards = 4;
  bench::Options opts;
  opts.scale = 0.25;
  const bench::Workload w = bench::make_eval_workload(opts);
  const auto qs = queries::evaluation_queries(w.thresholds, w.window);
  planner::PlannerConfig cfg;
  cfg.window = w.window;
  cfg.search_node_cap = 10000;
  const planner::Plan plan = planner::Planner(cfg).plan(qs, w.trace);
  std::vector<std::unique_ptr<pisa::Switch>> switches;
  std::vector<pisa::Switch*> raw_switches;
  for (std::size_t i = 0; i < kShards; ++i) {
    switches.push_back(std::make_unique<pisa::Switch>(plan.switch_config));
    runtime::PipelineBuild build = runtime::build_pipelines(plan, {});
    if (!switches.back()->install(std::move(build.pipelines), build.resources).empty()) {
      std::abort();
    }
    raw_switches.push_back(switches.back().get());
  }
  runtime::StreamProcessor sp(plan);
  const auto& pipelines = switches[0]->pipelines();
  std::vector<pisa::EmitSink> sinks(kShards);
  std::vector<std::vector<pisa::EmitRecord>> records(kShards);
  std::vector<std::vector<pisa::PolledBlock>> polls(kShards);
  std::vector<runtime::ShardOutput> outputs(kShards);
  // Fresh close input: this window's records and the switches' polls.
  const auto stage = [&] {
    std::uint64_t keys = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      records[i].assign(sinks[i].records().begin(), sinks[i].records().end());
      polls[i].resize(pipelines.size());
      for (std::size_t p = 0; p < pipelines.size(); ++p) {
        switches[i]->pipelines()[p]->poll_block(polls[i][p]);
        keys += polls[i][p].size();
      }
      outputs[i] = {records[i], {}, &polls[i]};
    }
    return keys;
  };

  const auto windows = trace::split_windows(w.trace, w.window);
  if (windows.size() < 3) std::abort();
  for (std::size_t win = 0; win < 3; ++win) {
    std::vector<std::vector<query::Tuple>> tuples(kShards);
    for (const auto& p : windows[win]) {
      const std::uint64_t flow = util::hash_combine(
          util::hash_combine(p.src_ip, p.dst_ip),
          (static_cast<std::uint64_t>(p.src_port) << 24) ^
              (static_cast<std::uint64_t>(p.dst_port) << 8) ^ p.proto);
      tuples[flow % kShards].push_back(query::materialize_tuple(p));
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      sinks[i].clear();
      switches[i]->process_batch(tuples[i], sinks[i]);
    }
    if (win == 2) break;  // keep the last window's registers and records
    stage();
    runtime::WindowStats stats;
    sp.close_window(stats, outputs, pipelines, raw_switches);
    for (auto& sw : switches) sw->reset_all_registers();
  }

  const auto threads = static_cast<std::size_t>(state.range(0));
  ClosePool pool(threads);
  const util::TaskRunner runner = [&](std::size_t count, const util::Task& task) {
    pool.run(count, task);
  };
  std::uint64_t keys = 0;
  std::uint64_t recs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    keys += stage();
    for (const auto& r : records) recs += r.size();
    runtime::WindowStats stats;
    state.ResumeTiming();
    sp.close_window(stats, outputs, pipelines, raw_switches, threads, runner);
    benchmark::DoNotOptimize(stats.results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys));
  // Seconds per key and per record, printed with their SI prefix.
  state.counters["per_key"] = benchmark::Counter(
      static_cast<double>(keys), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(recs), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WindowClose)->Arg(1)->Arg(3)->Unit(benchmark::kMicrosecond)->UseRealTime();

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

// The planner's branch-and-bound alone: warm plan_joint over the eval-8
// queries' installers at a 10,000-node cap. One plan first fills the
// estimators and the installers' pipeline memos, so each iteration times
// only the search. Two 3-s training windows with every attack on.
void BM_PlanSearch(benchmark::State& state) {
  const bench::Workload w = bench::make_eval_workload({});
  const auto qs = queries::evaluation_queries(w.thresholds, w.window);
  const auto all = planner::materialize_windows(w.trace, w.window);
  const std::vector<planner::TupleWindow> windows(all.begin() + 1, all.begin() + 3);
  planner::PlannerConfig cfg;
  cfg.window = w.window;
  cfg.search_node_cap = 10000;
  const std::uint64_t packets = planner::median_window_packets(windows);
  std::deque<planner::ChainInstaller> installers;
  std::vector<planner::ChainInstaller*> installer_ptrs;
  std::vector<const query::Query*> query_ptrs;
  for (const auto& q : qs) {
    installers.emplace_back(cfg, q, windows, packets);
    installer_ptrs.push_back(&installers.back());
    query_ptrs.push_back(&q);
  }
  benchmark::DoNotOptimize(planner::plan_joint(cfg, query_ptrs, installer_ptrs, packets));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner::plan_joint(cfg, query_ptrs, installer_ptrs, packets));
  }
}
BENCHMARK(BM_PlanSearch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
