// Multi-query telemetry "dashboard": run the full Table 3 evaluation set
// concurrently, print per-window detections and the division of labour
// between the switch and the stream processor.
//
// This is the scenario the paper's Figure 7b evaluates: eight queries
// sharing one switch, with Sonata's planner deciding which parts of each
// query run where.
//
// Build & run:  ./build/examples/attack_dashboard
#include <cstdio>

#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "util/ip.h"

using namespace sonata;

int main() {
  // A busy border link with seven simultaneous attacks.
  trace::BackgroundConfig bg;
  bg.duration_sec = 15.0;
  bg.flows_per_sec = 600.0;
  trace::TraceBuilder builder(/*seed=*/99);
  builder.background(bg);

  trace::SynFloodConfig flood;
  flood.victim = util::ipv4(99, 1, 0, 25);
  flood.start_sec = 2.0;
  flood.duration_sec = 12.0;
  flood.pps = 1200;
  builder.add(flood);

  trace::SshBruteForceConfig ssh;
  ssh.victim = util::ipv4(77, 2, 0, 10);
  ssh.start_sec = 2.0;
  ssh.duration_sec = 12.0;
  ssh.attempts_per_sec = 100;
  builder.add(ssh);

  trace::SuperspreaderConfig spread;
  spread.spreader = util::ipv4(55, 3, 0, 7);
  spread.start_sec = 2.0;
  spread.duration_sec = 12.0;
  spread.distinct_destinations = 4000;
  builder.add(spread);

  trace::PortScanConfig scan;
  scan.scanner = util::ipv4(44, 4, 0, 3);
  scan.target = util::ipv4(201, 10, 0, 1);
  scan.start_sec = 2.0;
  scan.duration_sec = 12.0;
  scan.last_port = 3000;
  builder.add(scan);

  trace::DdosConfig ddos;
  ddos.victim = util::ipv4(66, 5, 0, 9);
  ddos.start_sec = 2.0;
  ddos.duration_sec = 12.0;
  ddos.distinct_sources = 4000;
  ddos.pps = 2500;
  builder.add(ddos);

  trace::IncompleteFlowsConfig inc;
  inc.attacker = util::ipv4(202, 11, 0, 1);
  inc.victim = util::ipv4(88, 6, 0, 2);
  inc.start_sec = 2.0;
  inc.duration_sec = 12.0;
  inc.conns_per_sec = 350;
  builder.add(inc);

  trace::SlowlorisConfig slow;
  slow.victim = util::ipv4(33, 7, 0, 4);
  slow.start_sec = 2.0;
  slow.duration_sec = 12.0;
  slow.attacker_count = 4;
  slow.conns_per_attacker = 500;
  builder.add(slow);

  const auto trace = builder.build();

  queries::Thresholds th;
  th.newly_opened = 900;
  th.ssh_brute = 60;
  th.superspreader = 250;
  th.port_scan = 150;
  th.ddos = 700;
  th.syn_flood = 800;
  th.incomplete_flows = 300;
  th.slowloris_bytes = 30000;
  th.slowloris_ratio = 1500;
  const auto queries = queries::evaluation_queries(th, util::seconds(3));

  std::printf("Planning %zu queries over %zu packets...\n\n", queries.size(), trace.size());
  planner::PlannerConfig cfg;
  const auto plan = planner::Planner(cfg).plan(queries, trace);
  std::printf("%s\n", plan.summary().c_str());

  runtime::Runtime rt(plan);
  for (const auto& ws : rt.run_trace(trace)) {
    std::printf("--- window %llu: %llu packets seen, %llu tuples to stream processor\n",
                static_cast<unsigned long long>(ws.window_index),
                static_cast<unsigned long long>(ws.packets),
                static_cast<unsigned long long>(ws.tuples_to_sp));
    for (const auto& result : ws.results) {
      for (const auto& t : result.outputs) {
        std::printf("  [%s] key %s\n", result.name.c_str(),
                    t.at(0).is_uint()
                        ? util::ipv4_to_string(static_cast<std::uint32_t>(t.at(0).as_uint())).c_str()
                        : std::string(t.at(0).as_string()).c_str());
      }
    }
  }

  const auto& st = rt.data_plane(0).stats();
  std::printf("\nSwitch stats: %llu packets, %llu mirrored records (%llu overflow),\n",
              static_cast<unsigned long long>(st.packets_processed),
              static_cast<unsigned long long>(st.records_emitted),
              static_cast<unsigned long long>(st.overflow_records));
  std::printf("%llu filter-entry updates, %.1f ms modeled control latency\n",
              static_cast<unsigned long long>(st.filter_entry_updates),
              st.control_update_millis);
  return 0;
}
