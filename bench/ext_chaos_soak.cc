// Extension benchmark + CI chaos gate: deterministic fault-injection soak
// (DESIGN.md "Fault model & degradation").
//
// Drives the parallel fleet and the single-switch runtime through seeded
// fault schedules and asserts the three chaos invariants:
//
//   1. no crash: the whole soak completes (CI runs it under ASan+UBSan, so
//      "completes" includes "no sanitizer finding");
//   2. fault-free windows are bit-identical to a never-faulted baseline —
//      injection is surgical, a window nothing touched is exactly the
//      window the clean run produced (and the recovery window after a
//      quarantined stall is clean again);
//   3. every injected fault is visible in the metrics snapshot: the summed
//      per-window WindowStats::faults deltas equal the sonata_fault_*
//      counters — nothing was injected or degraded silently.
//
// Phase 2 exercises the acted-on re-planning loop: a well-sized plan is
// installed under register_shrink pressure (collision-overflow storm), and
// the auto-replan path must fire, hot-swap a plan trained on live windows,
// and end the run with the storm gone.
//
// `--smoke` shrinks the trace for sanitizer CI jobs. Results land in
// BENCH_chaos.json; the fault counters land in chaos_metrics.json (CI
// uploads both as artifacts). Exits nonzero on any violation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "queries/catalog.h"
#include "runtime/fleet.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

using namespace sonata;

namespace {

bool identical_window(const runtime::WindowStats& a, const runtime::WindowStats& b) {
  if (a.packets != b.packets || a.tuples_to_sp != b.tuples_to_sp ||
      a.raw_mirror_packets != b.raw_mirror_packets ||
      a.overflow_records != b.overflow_records || a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.results.size(); ++r) {
    if (a.results[r].qid != b.results[r].qid ||
        !(a.results[r].outputs == b.results[r].outputs)) {
      return false;
    }
  }
  return a.winners == b.winners;
}

std::uint64_t counter_value(const obs::Snapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const double duration_sec = smoke ? 12.0 : 24.0;
  trace::BackgroundConfig bg;
  bg.duration_sec = duration_sec;
  bg.flows_per_sec = 300.0 * opts.scale;
  const auto trace_pkts = trace::TraceBuilder(opts.seed).background(bg).build();

  const util::Nanos window = util::seconds(3);
  queries::Thresholds th;  // defaults: moderate report volume per window
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, window));
  qs.push_back(queries::make_ddos(th, window));

  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kMaxDP;
  cfg.window = window;
  const auto plan = planner::Planner(cfg).plan(qs, trace_pkts);
  const auto slices = trace::split_windows(trace_pkts, window);

  std::printf("Chaos soak: %zu packets, %zu windows, fleet of 2 switches x 2 workers%s\n\n",
              trace_pkts.size(), slices.size(), smoke ? " (smoke)" : "");

  // The gate asserts counter == account equality, and obs counters only
  // record while enabled.
  obs::set_enabled(true);
  obs::Registry::global().reset_values();

  // Deterministic shard routing (alternating switches) so the baseline and
  // chaos runs shard the traffic identically.
  const auto run_fleet = [&](const fault::FaultSpec& faults) {
    runtime::Fleet fleet(plan, 2, 2, 64, faults);
    std::vector<runtime::WindowStats> out;
    for (const auto& slice : slices) {
      std::size_t k = 0;
      for (const auto& p : slice) fleet.ingest_at(k++ % 2, p);
      out.push_back(fleet.close_window());
    }
    return out;
  };

  const auto baseline = run_fleet(fault::FaultSpec{});

  // -- phase 1: fleet under wire faults + a one-window stall -------------
  // The smoke trace mirrors about 20 reports in all, at most one data frame
  // per shard and window, so the wire rates are high enough to inject wire
  // faults at every seed tried (1-7 and 2018; 1% missed at 3 of them).
  fault::FaultSpec spec;
  spec.seed = opts.seed;
  spec.corrupt_rate = 0.05;
  spec.truncate_rate = 0.05;
  spec.drop_rate = 0.05;
  spec.dup_rate = 0.05;
  spec.reorder_rate = 0.05;
  spec.slow_ns = 10'000;  // visible in the account, costs only time
  spec.stall_switch = 1;
  spec.stall_from_window = 1;
  spec.stall_windows = 1;
  spec.watchdog_ms = 2000;  // generous: sanitizer builds drain slowly
  std::printf("fault spec: %s\n\n", spec.to_string().c_str());

  obs::Registry::global().reset_values();
  const auto chaos = run_fleet(spec);

  std::size_t clean = 0, faulted = 0, mismatched_clean = 0;
  fault::FaultAccount sum;
  for (std::size_t w = 0; w < chaos.size(); ++w) {
    const auto& cw = chaos[w];
    const auto& f = cw.faults;
    sum.corrupted += f.corrupted;
    sum.corrupted_delivered += f.corrupted_delivered;
    sum.truncated += f.truncated;
    sum.dropped += f.dropped;
    sum.duplicated += f.duplicated;
    sum.reordered += f.reordered;
    sum.decode_failures += f.decode_failures;
    sum.slowdowns += f.slowdowns;
    sum.watchdog_fires += f.watchdog_fires;
    sum.late_packets += f.late_packets;
    sum.shed_packets += f.shed_packets;
    const bool is_clean = f.output_affecting() == 0 && !cw.partial;
    if (is_clean) {
      ++clean;
      if (!identical_window(cw, baseline[w])) ++mismatched_clean;
    } else {
      ++faulted;
    }
    std::printf("  window %2zu: %s  mask=0x%llx  wire(c/t/d/dup/r)=%llu/%llu/%llu/%llu/%llu"
                "  late=%llu shed=%llu%s\n",
                w, is_clean ? "clean  " : "faulted",
                static_cast<unsigned long long>(cw.contribution_mask),
                static_cast<unsigned long long>(f.corrupted),
                static_cast<unsigned long long>(f.truncated),
                static_cast<unsigned long long>(f.dropped),
                static_cast<unsigned long long>(f.duplicated),
                static_cast<unsigned long long>(f.reordered),
                static_cast<unsigned long long>(f.late_packets),
                static_cast<unsigned long long>(f.shed_packets),
                cw.partial ? "  PARTIAL" : "");
  }

  // Invariant 3 while phase 1's counters are the only fault counters.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"sonata_fault_corrupted_total", sum.corrupted},
      {"sonata_fault_corrupted_delivered_total", sum.corrupted_delivered},
      {"sonata_fault_truncated_total", sum.truncated},
      {"sonata_fault_dropped_total", sum.dropped},
      {"sonata_fault_duplicated_total", sum.duplicated},
      {"sonata_fault_reordered_total", sum.reordered},
      {"sonata_fault_decode_failures_total", sum.decode_failures},
      {"sonata_fault_slowdowns_total", sum.slowdowns},
      {"sonata_fault_watchdog_fires_total", sum.watchdog_fires},
      {"sonata_fault_late_packets_total", sum.late_packets},
      {"sonata_fault_shed_packets_total", sum.shed_packets},
  };
  std::size_t counter_mismatches = 0;
  for (const auto& [name, want] : expected) {
    const std::uint64_t got = counter_value(snap, name);
    if (got != want) {
      ++counter_mismatches;
      std::printf("COUNTER MISMATCH: %s = %llu, window deltas sum to %llu\n", name,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    }
  }

  std::ofstream metrics("chaos_metrics.json");
  metrics << "{\n";
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    metrics << "  \"" << expected[i].first
            << "\": " << counter_value(snap, expected[i].first)
            << (i + 1 < std::size(expected) ? ",\n" : "\n");
  }
  metrics << "}\n";

  const bool wire_injected = sum.corrupted + sum.truncated + sum.dropped + sum.duplicated +
                                 sum.reordered >
                             0;
  const bool stall_hit = sum.watchdog_fires >= 1;

  // -- phase 2: register pressure -> auto-replan recovery ----------------
  fault::FaultSpec pressure;
  pressure.seed = opts.seed;
  pressure.register_shrink = 64;
  runtime::Runtime rt(plan, 256, pressure);
  rt.set_replan_policy({.overflow_threshold = 0.01, .consecutive_windows = 2});
  runtime::Runtime::AutoReplanConfig ar;
  ar.queries = &qs;
  ar.planner = cfg;
  ar.history_windows = 2;
  rt.enable_auto_replan(ar);
  const auto replan_windows = rt.run_trace(trace_pkts);
  obs::set_enabled(false);

  const auto frac = [](const runtime::WindowStats& w) {
    return w.packets == 0 ? 0.0
                          : static_cast<double>(w.overflow_records) /
                                static_cast<double>(w.packets);
  };
  const bool replanned = rt.replans_performed() >= 1;
  const double storm = frac(replan_windows.front());
  const double settled = frac(replan_windows.back());
  const bool recovered = replanned && settled < storm && settled < 0.01;
  std::printf("\nauto-replan: %llu swap(s), overflow fraction %.3f (storm) -> %.4f (settled)\n",
              static_cast<unsigned long long>(rt.replans_performed()), storm, settled);

  const bool identity_ok = clean >= 1 && mismatched_clean == 0;
  const bool coverage_ok = wire_injected && stall_hit && faulted >= 1;
  const bool counters_ok = counter_mismatches == 0;
  const bool pass = identity_ok && coverage_ok && counters_ok && recovered;

  bench::print_table(
      {"invariant", "status"},
      {{"1. soak completed (no crash)", "yes"},
       {"2. clean windows bit-identical (" + std::to_string(clean) + " clean, " +
            std::to_string(faulted) + " faulted)",
        identity_ok ? "yes" : "NO"},
       {"3. counters == window fault deltas", counters_ok ? "yes" : "NO"},
       {"fault coverage (wire + stall)", coverage_ok ? "yes" : "NO"},
       {"auto-replan recovered", recovered ? "yes" : "NO"}});

  std::ofstream json("BENCH_chaos.json");
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\n  \"bench\": \"chaos_soak\",\n  \"hardware\": %s,\n"
                "  \"smoke\": %s,\n  \"packets\": %zu,\n"
                "  \"windows\": %zu,\n  \"clean_windows\": %zu,\n  \"faulted_windows\": %zu,\n"
                "  \"mismatched_clean_windows\": %zu,\n  \"counter_mismatches\": %zu,\n"
                "  \"watchdog_fires\": %llu,\n  \"late_packets\": %llu,\n"
                "  \"shed_packets\": %llu,\n  \"decode_failures\": %llu,\n"
                "  \"replans\": %llu,\n  \"overflow_storm\": %.4f,\n"
                "  \"overflow_settled\": %.4f,\n  \"pass\": %s\n}\n",
                bench::hardware_json().c_str(), smoke ? "true" : "false", trace_pkts.size(),
                chaos.size(), clean, faulted,
                mismatched_clean, counter_mismatches,
                static_cast<unsigned long long>(sum.watchdog_fires),
                static_cast<unsigned long long>(sum.late_packets),
                static_cast<unsigned long long>(sum.shed_packets),
                static_cast<unsigned long long>(sum.decode_failures),
                static_cast<unsigned long long>(rt.replans_performed()), storm, settled,
                pass ? "true" : "false");
  json << buf;
  std::printf("\nWrote BENCH_chaos.json and chaos_metrics.json\n");

  if (!pass) {
    std::printf("FAIL: identity=%d coverage=%d counters=%d replan=%d\n", identity_ok,
                coverage_ok, counters_ok, recovered);
    return 1;
  }
  std::printf("PASS: all chaos invariants hold\n");
  return 0;
}
