// Extension benchmark: batched data-path throughput (DESIGN.md "Data-path
// memory model").
//
// One MaxDP plan on a fixed 8-switch fleet, replaying the same trace for
// every (batch size, worker threads) combination. `batch` is the handoff
// granularity of the whole data path: driver-side packet runs, one SPSC
// acquire/release pair and at most one worker wakeup per run, one
// Switch::process_batch call into the shard emit arena, and a move-based
// merge into the stream executors at the barrier. batch=1 runs the same
// path one packet at a time and is the equivalence reference.
//
// Reported per configuration: wall-clock packets/sec (best of five
// replays), speedup vs batch=1 at the same thread count, and whether the
// windows are bit-identical to the reference. Results also land in
// BENCH_datapath.json (machine-readable, one object per configuration) for
// CI and EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/fleet.h"
#include "runtime/stream_processor.h"

using namespace sonata;

namespace {

bool identical_windows(const std::vector<runtime::WindowStats>& a,
                       const std::vector<runtime::WindowStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t w = 0; w < a.size(); ++w) {
    if (a[w].packets != b[w].packets || a[w].tuples_to_sp != b[w].tuples_to_sp ||
        a[w].raw_mirror_packets != b[w].raw_mirror_packets ||
        a[w].overflow_records != b[w].overflow_records ||
        a[w].results.size() != b[w].results.size()) {
      return false;
    }
    for (std::size_t r = 0; r < a[w].results.size(); ++r) {
      if (a[w].results[r].qid != b[w].results[r].qid ||
          !(a[w].results[r].outputs == b[w].results[r].outputs)) {
        return false;
      }
    }
    if (!(a[w].winners == b[w].winners)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  constexpr std::size_t kSwitches = 8;
  constexpr int kReps = 5;

  // Data-path focus: one long window (control-plane work — register polls,
  // resets, refinement — runs once and amortizes away) and one light query,
  // so the measurement tracks the per-packet path this bench exists for:
  // parse -> pipelines -> SPSC handoff -> emit arena -> barrier merge.
  trace::BackgroundConfig bg;
  bg.duration_sec = 15.0;
  bg.flows_per_sec = 600.0 * opts.scale;
  const auto trace = trace::TraceBuilder(opts.seed).background(bg).build();

  queries::Thresholds th;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(30)));

  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  cfg.window = util::seconds(30);
  const auto plan = planner::Planner(cfg).plan(qs, trace);

  std::printf("Batched data path: %zu-switch fleet, %zu packets, best of %d replays\n",
              kSwitches, trace.size(), kReps);
  std::printf("(hardware reports %u cores)\n\n", std::thread::hardware_concurrency());

  // Reference: per-packet serial replay.
  runtime::Fleet reference_fleet(plan, kSwitches, 0, 1);
  const auto reference = reference_fleet.run_trace(trace);

  struct Config {
    std::size_t batch;
    std::size_t threads;
    double pps = 0.0;
    double seconds = 0.0;
    bool identical = false;
  };
  std::vector<Config> configs;
  for (const std::size_t batch : {1u, 64u, 256u, 1024u}) {
    for (const std::size_t threads : {0u, 1u, 8u}) {
      Config c{batch, threads};
      c.seconds = 1e30;
      configs.push_back(c);
    }
  }

  // Rep-outer so background load drift on a shared machine hits every
  // configuration equally; best-of keeps the cleanest replay per config.
  for (int rep = 0; rep < kReps; ++rep) {
    for (Config& c : configs) {
      runtime::Fleet fleet(plan, kSwitches, c.threads, c.batch);
      const auto t0 = std::chrono::steady_clock::now();
      const auto windows = fleet.run_trace(trace);
      const auto t1 = std::chrono::steady_clock::now();
      c.seconds = std::min(c.seconds, std::chrono::duration<double>(t1 - t0).count());
      if (rep == 0) c.identical = identical_windows(reference, windows);
    }
  }
  std::map<std::size_t, double> baseline_pps;  // threads -> pps at batch=1
  for (Config& c : configs) {
    c.pps = static_cast<double>(trace.size()) / c.seconds;
    if (c.batch == 1) baseline_pps[c.threads] = c.pps;
  }

  std::vector<std::vector<std::string>> rows;
  for (const Config& c : configs) {
    char pps_s[32], speedup_s[32];
    std::snprintf(pps_s, sizeof pps_s, "%.2fM", c.pps / 1e6);
    std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", c.pps / baseline_pps[c.threads]);
    rows.push_back({std::to_string(c.batch), std::to_string(c.threads), pps_s, speedup_s,
                    c.identical ? "yes" : "NO"});
  }
  bench::print_table({"batch", "threads", "packets/sec", "vs batch=1", "bit-identical"}, rows);
  std::printf("\nEvery configuration replays the same trace through the same plan; only\n");
  std::printf("the handoff granularity changes, so all windows match the reference.\n");

  std::ofstream json("BENCH_datapath.json");
  json << "{\n  \"bench\": \"datapath_throughput\",\n";
  json << "  \"switches\": " << kSwitches << ",\n";
  json << "  \"packets\": " << trace.size() << ",\n";
  json << "  \"reps\": " << kReps << ",\n";
  json << "  \"hardware\": " << bench::hardware_json() << ",\n";
  json << "  \"configs\": [\n";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"batch\": %zu, \"threads\": %zu, \"pps\": %.0f, "
                  "\"seconds\": %.4f, \"speedup_vs_batch1\": %.3f, \"identical\": %s}%s\n",
                  c.batch, c.threads, c.pps, c.seconds, c.pps / baseline_pps[c.threads],
                  c.identical ? "true" : "false", i + 1 == configs.size() ? "" : ",");
    json << buf;
  }
  json << "  ]\n}\n";
  std::printf("\nWrote BENCH_datapath.json\n");
  return 0;
}
