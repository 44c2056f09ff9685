// Extension benchmark + CI scaling gate: packets/sec-per-core (DESIGN.md
// "Datapath vectorization & memory locality").
//
// The datapath bench answers "how fast is one configuration"; this one
// answers "does adding cores keep paying". One MaxDP plan on an 8-switch
// fleet replays the same trace at worker counts {0 (serial), 1, 2, 4, 8},
// batch=256, workers pinned round-robin over the affinity mask. For every
// configuration we report aggregate pps and pps-per-core (aggregate divided
// by the worker count, serial counted as one core), plus bit-identity
// against the serial per-packet reference.
//
// Each rep replays the trace back to back, whole passes, until it has run
// at least kMinRepSeconds, and reads pps over all its passes. Reps
// interleave the configurations — rep r runs every configuration before
// rep r+1 starts — so slow drift on a shared box lands on all of them
// alike, and each configuration is scored by the median of its reps, not
// the best.
//
// Gates (exit nonzero on failure):
//   * identity — every configuration's windows bit-identical to serial
//     (always checked, any machine).
//   * efficiency — threaded pps-per-core must stay above
//     kMinParallelEfficiency of the serial pps. Skipped when the affinity
//     mask grants fewer than 4 cores: on a 1-2 core box the workers time-
//     slice one socket and per-core numbers measure the scheduler, not us.
//   * scaling — aggregate pps at the highest thread count must beat serial
//     aggregate pps. Same < 4 core skip.
//
// `--smoke` shrinks the trace for sanitizer jobs (identity still gated) and
// runs one pass per rep.
// Results land in BENCH_scaling.json with the honest hardware inventory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/fleet.h"
#include "runtime/stream_processor.h"
#include "util/cpu.h"

using namespace sonata;

namespace {

constexpr double kMinParallelEfficiency = 0.25;  // pps-per-core floor vs serial
constexpr double kMinRepSeconds = 0.5;           // per rep, outside --smoke

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

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
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  constexpr std::size_t kSwitches = 8;
  constexpr std::size_t kBatch = 256;
  const int reps = smoke ? 2 : 5;
  const std::size_t cores = util::available_cores();

  trace::BackgroundConfig bg;
  bg.duration_sec = smoke ? 4.0 : 15.0;
  bg.flows_per_sec = 600.0 * opts.scale;
  const auto trace = trace::TraceBuilder(opts.seed).background(bg).build();

  queries::Thresholds th;
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(30)));

  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  cfg.window = util::seconds(30);
  const auto plan = planner::Planner(cfg).plan(qs, trace);

  runtime::Fleet reference_fleet(plan, kSwitches, 0, 1);
  const auto reference = reference_fleet.run_trace(trace);

  struct Config {
    std::size_t threads;               // 0 = serial driver-only path
    std::vector<double> rep_pps = {};  // per rep, in rep order
    double pps = 0.0;                  // median of rep_pps
    double pps_per_core = 0.0;
    std::size_t pinned = 0;
    bool identical = false;
  };
  std::vector<Config> configs;
  for (const std::size_t t : {0u, 1u, 2u, 4u, 8u}) configs.push_back({.threads = t});

  // One rep on a fresh fleet: whole passes of the trace until it has run
  // min_seconds. The first pass's windows are checked against the
  // reference after the clock stops.
  const auto rep = [&](Config& c, double min_seconds) {
    runtime::Fleet fleet(plan, kSwitches, c.threads, kBatch, {}, /*pin_workers=*/true);
    std::vector<runtime::WindowStats> first;
    std::size_t passes = 0;
    double seconds = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      auto windows = fleet.run_trace(trace);
      if (passes++ == 0) first = std::move(windows);
      seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    } while (seconds < min_seconds);
    c.identical = identical_windows(reference, first);
    c.pinned = fleet.pinned_workers();
    c.rep_pps.push_back(static_cast<double>(trace.size() * passes) / seconds);
  };

  std::printf("Scaling: %zu-switch fleet, %zu packets per pass, passes until each rep "
              "runs %.1f s, batch %zu, median of %d interleaved reps, %zu allowed cores, "
              "simd %s%s\n\n",
              kSwitches, trace.size(), smoke ? 0.0 : kMinRepSeconds, kBatch, reps, cores,
              util::simd_level(), smoke ? " (smoke)" : "");

  for (Config& c : configs) {
    rep(c, 0.0);  // warm-up: one pass, not scored
    c.rep_pps.clear();
  }
  bool identity_ok = true;
  for (int r = 0; r < reps; ++r) {
    for (Config& c : configs) {
      rep(c, smoke ? 0.0 : kMinRepSeconds);
      identity_ok = identity_ok && c.identical;
    }
  }
  for (Config& c : configs) {
    c.pps = median(c.rep_pps);
    c.pps_per_core = c.pps / static_cast<double>(c.threads == 0 ? 1 : c.threads);
  }
  const double serial_pps = configs.front().pps;

  std::vector<std::vector<std::string>> rows;
  for (const Config& c : configs) {
    char pps_s[32], per_core_s[32], eff_s[32], spread_s[48];
    std::snprintf(pps_s, sizeof pps_s, "%.2fM", c.pps / 1e6);
    std::snprintf(per_core_s, sizeof per_core_s, "%.2fM", c.pps_per_core / 1e6);
    std::snprintf(eff_s, sizeof eff_s, "%.2f", c.pps_per_core / serial_pps);
    std::snprintf(spread_s, sizeof spread_s, "%.2fM..%.2fM",
                  *std::min_element(c.rep_pps.begin(), c.rep_pps.end()) / 1e6,
                  *std::max_element(c.rep_pps.begin(), c.rep_pps.end()) / 1e6);
    rows.push_back({c.threads == 0 ? "serial" : std::to_string(c.threads),
                    std::to_string(c.pinned), pps_s, per_core_s, eff_s, spread_s,
                    c.identical ? "yes" : "NO"});
  }
  bench::print_table({"workers", "pinned", "pps", "pps/core", "efficiency", "rep pps min..max",
                      "bit-identical"},
                     rows);

  const bool multicore = cores >= 4;
  bool efficiency_ok = true;
  bool scaling_ok = true;
  if (multicore) {
    for (const Config& c : configs) {
      if (c.threads > 0 && c.threads <= cores &&
          c.pps_per_core < kMinParallelEfficiency * serial_pps) {
        efficiency_ok = false;
      }
    }
    scaling_ok = configs.back().pps > serial_pps;
  } else {
    std::printf("\n(< 4 allowed cores: efficiency and scaling gates skipped — workers "
                "time-slice, per-core numbers would measure the scheduler)\n");
  }
  const bool pass = identity_ok && efficiency_ok && scaling_ok;

  std::ofstream json("BENCH_scaling.json");
  json << "{\n  \"bench\": \"scaling\",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"switches\": " << kSwitches << ",\n";
  json << "  \"packets\": " << trace.size() << ",\n";
  json << "  \"batch\": " << kBatch << ",\n  \"reps\": " << reps << ",\n";
  json << "  \"min_rep_seconds\": " << (smoke ? 0.0 : kMinRepSeconds)
       << ",\n  \"score\": \"median of interleaved reps\",\n";
  json << "  \"hardware\": " << bench::hardware_json(configs.back().pinned) << ",\n";
  json << "  \"configs\": [\n";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    std::string rep_pps;
    for (const double r : c.rep_pps) {
      char v[32];
      std::snprintf(v, sizeof v, "%s%.0f", rep_pps.empty() ? "" : ", ", r);
      rep_pps += v;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"threads\": %zu, \"pinned\": %zu, \"pps\": %.0f, "
                  "\"pps_per_core\": %.0f, \"efficiency\": %.3f, \"rep_pps\": [%s], "
                  "\"identical\": %s}%s\n",
                  c.threads, c.pinned, c.pps, c.pps_per_core, c.pps_per_core / serial_pps,
                  rep_pps.c_str(), c.identical ? "true" : "false",
                  i + 1 == configs.size() ? "" : ",");
    json << buf;
  }
  json << "  ],\n";
  json << "  \"gate\": {\"identical\": " << (identity_ok ? "true" : "false")
       << ", \"multicore_gates_ran\": " << (multicore ? "true" : "false")
       << ", \"efficiency_ok\": " << (efficiency_ok ? "true" : "false")
       << ", \"scaling_ok\": " << (scaling_ok ? "true" : "false")
       << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
  std::printf("\nWrote BENCH_scaling.json\n");

  if (!identity_ok) {
    std::fprintf(stderr, "GATE FAILURE: windows not bit-identical to serial reference\n");
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr, "GATE FAILURE: efficiency=%d scaling=%d\n", efficiency_ok, scaling_ok);
    return 2;
  }
  std::printf("PASS\n");
  return 0;
}
