// Closed-loop, network-wide telemetry (the paper's §8 future work, built
// here as an extension):
//
//   * a fleet of 3 ingress switches shares one plan and one stream
//     processor; per-switch register state merges at the reduce, so a
//     victim whose per-switch counts stay below threshold is still caught
//     when the network-wide sum crosses it;
//   * a mitigation policy turns detections into line-rate drop rules on
//     every switch, closing the loop: the attack disappears from the data
//     plane one window after detection.
//
// Build & run:  ./build/examples/closed_loop
#include <cstdio>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/fleet.h"
#include "trace/trace.h"
#include "util/ip.h"

using namespace sonata;

int main() {
  const std::uint32_t victim = util::ipv4(198, 18, 4, 2);

  trace::BackgroundConfig bg;
  bg.duration_sec = 18.0;
  bg.flows_per_sec = 400.0;
  trace::TraceBuilder builder(/*seed=*/61);
  builder.background(bg);
  trace::SynFloodConfig flood;
  flood.victim = victim;
  flood.start_sec = 3.0;
  flood.duration_sec = 14.0;
  flood.pps = 700.0;  // ~2100 SYN/window network-wide, ~700 per switch
  builder.add(flood);
  const auto trace = builder.build();

  queries::Thresholds th;
  th.newly_opened = 1200;  // above any single switch's share
  std::vector<query::Query> qs;
  qs.push_back(queries::make_newly_opened_tcp(th, util::seconds(3)));

  planner::PlannerConfig cfg;
  const auto plan = planner::Planner(cfg).plan(qs, trace);

  // ------------------------------------------------------------------
  // Part 1: a single switch would see only its 1/3 share.
  // ------------------------------------------------------------------
  std::printf("Victim %s floods at ~2100 SYN/window across 3 ingress switches;\n",
              util::ipv4_to_string(victim).c_str());
  std::printf("threshold is %llu — above any single switch's share.\n\n",
              static_cast<unsigned long long>(th.newly_opened));

  // ------------------------------------------------------------------
  // Part 2: the fleet merges per-switch aggregates and detects. Three
  // worker threads run the per-switch hot paths concurrently; results are
  // identical to the serial fleet (window-barrier merge in switch order).
  // ------------------------------------------------------------------
  runtime::Fleet fleet(plan, 3, /*worker_threads=*/3);
  std::printf("%-8s %-10s %-14s %s\n", "window", "packets", "tuples to SP", "detections");
  for (const auto& ws : fleet.run_trace(trace)) {
    std::string dets;
    for (const auto& r : ws.results) {
      for (const auto& t : r.outputs) {
        dets += util::ipv4_to_string(static_cast<std::uint32_t>(t.at(0).as_uint())) + " ";
      }
    }
    std::printf("%-8llu %-10llu %-14llu %s\n",
                static_cast<unsigned long long>(ws.window_index),
                static_cast<unsigned long long>(ws.packets),
                static_cast<unsigned long long>(ws.tuples_to_sp), dets.c_str());
  }

  // ------------------------------------------------------------------
  // Part 3: the closed loop on the same fleet — detections over the
  // merged state install a drop rule on every switch; the flood vanishes
  // from the data plane the next window.
  // ------------------------------------------------------------------
  std::printf("\nClosed loop (3 switches, drop rule on detection):\n");
  runtime::Fleet guarded(plan, 3, /*worker_threads=*/3);
  guarded.enable_mitigation({.qid = 1, .output_column = "dIP", .packet_field = "dIP"});
  std::printf("%-8s %-10s %-10s %s\n", "window", "packets", "dropped", "victim detected?");
  for (const auto& ws : guarded.run_trace(trace)) {
    bool hit = false;
    for (const auto& r : ws.results) {
      for (const auto& t : r.outputs) hit = hit || t.at(0).as_uint() == victim;
    }
    std::printf("%-8llu %-10llu %-10llu %s\n",
                static_cast<unsigned long long>(ws.window_index),
                static_cast<unsigned long long>(ws.packets),
                static_cast<unsigned long long>(ws.dropped_packets), hit ? "yes" : "");
  }
  std::printf("\nGuard tables:");
  for (std::size_t i = 0; i < guarded.data_plane_count(); ++i) {
    std::printf(" switch %zu: %zu blocked key(s);", i, guarded.data_plane(i).blocked_keys());
  }
  std::printf("\n");
  return 0;
}
