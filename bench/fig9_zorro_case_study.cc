// Figure 9 reproduction: the end-to-end Zorro case study.
//
// Timeline (the paper's, on our PISA simulator instead of a Tofino):
//   t = 10 s  attacker starts sending similar-sized telnet packets to the
//             victim; refinement zooms in over the next windows,
//   t = 20 s  attacker gains shell access and issues commands containing
//             the keyword "zorro",
//   t <= 21s+ Sonata confirms the attack with only a handful of tuples ever
//             reaching the stream processor.
//
// The output prints, per window: packets received by the switch, tuples
// reported to the stream processor, and the detection events — the two
// series of the paper's Figure 9.
#include <cstdio>

#include "common.h"
#include "util/ip.h"

using namespace sonata;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const auto workload = bench::make_zorro_workload(opts);

  std::vector<query::Query> qs;
  qs.push_back(queries::make_zorro(workload.thresholds, workload.window));

  planner::PlannerConfig cfg;
  cfg.mode = planner::PlanMode::kSonata;
  cfg.window = workload.window;
  cfg.ip_levels = {8, 16, 24};
  // Train on the first 9 s (pre-attack) plus the attack-bearing remainder;
  // the paper trains on historical traces of the same link.
  const auto plan = planner::Planner(cfg).plan(qs, workload.trace);
  std::printf("Figure 9: detecting the Zorro attack (victim %s, attack at t=%.0f s,\n",
              util::ipv4_to_string(workload.attack.victim).c_str(),
              workload.attack.start_sec);
  std::printf("shell commands at t=%.0f s; window W = %.0f s)\n\n",
              workload.attack.shell_at_sec, util::to_seconds(workload.window));
  std::printf("%s\n", plan.summary().c_str());

  runtime::Runtime rt(plan);
  std::vector<std::vector<std::string>> rows;
  bool victim_identified = false;
  bool attack_confirmed = false;
  for (const auto& ws : rt.run_trace(workload.trace)) {
    std::string event;
    for (const auto& r : ws.results) {
      for (const auto& t : r.outputs) {
        if (t.at(0).as_uint() == workload.attack.victim && !attack_confirmed) {
          attack_confirmed = true;
          event = "ATTACK CONFIRMED (keyword seen)";
        }
      }
    }
    // "Victim identified": a winner key covering the victim's address was
    // installed into the next refinement level's filter tables.
    if (!victim_identified) {
      if (const auto* keys = ws.winners.find(qs[0].id())) {
        for (const auto& w : *keys) {
          const auto prefix = static_cast<std::uint32_t>(w.at(0).as_uint());
          for (const int lvl : plan.queries[0].chain) {
            if (lvl < 32 && prefix == util::ipv4_prefix(workload.attack.victim, lvl)) {
              victim_identified = true;
            }
          }
        }
      }
      if (victim_identified && event.empty()) {
        event = "VICTIM IDENTIFIED (refinement zoomed in)";
      }
    }
    const double t0 = static_cast<double>(ws.window_index) * util::to_seconds(workload.window);
    char span[32];
    std::snprintf(span, sizeof span, "[%2.0f,%2.0f)", t0, t0 + util::to_seconds(workload.window));
    rows.push_back({span, bench::fmt_count(ws.packets), bench::fmt_count(ws.tuples_to_sp),
                    event});
  }
  bench::print_table({"t (s)", "switch packets", "tuples to SP", "event"}, rows);

  if (!attack_confirmed) {
    std::printf("\nFAILED: attack was not detected\n");
    return 1;
  }
  std::printf("\nAttack confirmed. Total control-plane update latency: %.1f ms\n",
              rt.data_plane(0).stats().control_update_millis);
  return 0;
}
