// sonata_run — the operator-facing CLI:
//
//   sonata_run --queries FILE [--pcap FILE] [--mode sonata|all-sp|filter-dp|
//              max-dp|fix-ref] [--window SECONDS] [--emit-p4 FILE]
//              [--train-pcap FILE] [--synthetic SECONDS] [--seed N]
//              [--switches N] [--threads N] [--batch N]
//              [--admit-script FILE] [--fault-spec k=v,...]
//
// Loads telemetry queries from the declarative DSL (see query/parser.h),
// plans them against training traffic (a pcap or a synthetic trace), prints
// the plan, optionally emits the generated P4 program for the switch side,
// runs the full window loop, and reports per-window detections and
// stream-processor load. `--switches N` deploys the plan on an N-switch
// fleet (ECMP-hashed ingress); `--threads N` processes the fleet on N
// worker threads — both run behind the same TelemetryEngine interface, and
// results are identical for any switch/thread combination that sees the
// whole trace. `--batch N` sets the data-path handoff granularity (default
// 256; batch 1 runs the batched path one packet at a time) — output is
// bit-identical for any value, only throughput changes. Flags are parsed and validated by the
// shared tools/run_config module.
//
// Dynamic query control plane: the DSL file may declare tenants
// (`tenant ops budget stages=8 bits=1048576`) and tag queries with one;
// `--admit-script FILE` stages submit/withdraw actions at window
// boundaries (see run_config.h for the format). Submissions the planner
// cannot fit inside the tenant's budget are rejected with a diagnostic
// naming the binding constraint and the smallest admitting budget.
//
// Observability: `--metrics-json FILE` enables the metrics registry and
// writes an aggregated JSON snapshot after the run (`--metrics-prom FILE`
// writes the Prometheus text exposition); `--trace-out FILE` records
// window-phase spans and writes Chrome trace-event JSON (load in Perfetto
// or chrome://tracing). `--log-level debug|info|warn|error|off` sets the
// logger threshold (`--verbose` is an alias for `--log-level info`; at
// info the engine prints a per-window summary line with the phase-time
// breakdown). Windows are bit-identical with observability on or off.
//
// Fault injection: `--fault-spec k=v,...` configures the deterministic
// chaos harness (DESIGN.md "Fault model & degradation"). Keys: seed,
// corrupt/truncate/drop/dup/reorder (wire-fault rates per mirrored
// report), slow_ns (worker slowdown), stall_switch/stall_from/
// stall_windows (stall one fleet worker for a window range), watchdog_ms
// (per-window degradation budget; required for stalls), shrink/hash_seed
// (register pressure). Injected faults are visible per window in the
// engine log and cumulatively as sonata_fault_* metrics.
//
// Live introspection (ISSUE 8): `--introspect HOST:PORT` serves /metrics,
// /snapshot, /journal and /healthz from a background thread while the run
// is in flight, then lingers until SIGINT/SIGTERM so dashboards can scrape
// the final state. `--journal-out FILE` dumps the event-journal tail as
// JSON at exit; `--postmortem FILE` arms the crash flight recorder (on a
// fatal signal the journal tail + last metrics snapshot are written there
// before the process dies); `--crash-after N` raises SIGSEGV after N
// windows — the test hook CI uses to exercise the postmortem path.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "net/pcap.h"
#include "net/transport/transport.h"
#include "obs/http.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "pisa/p4gen.h"
#include "query/parser.h"
#include "run_config.h"
#include "runtime/control_plane.h"
#include "runtime/distributed.h"
#include "runtime/engine.h"
#include "stream/sparkgen.h"
#include "trace/trace.h"
#include "util/ip.h"
#include "util/log.h"
#include "util/time.h"

using namespace sonata;
using tools::AdmitAction;
using tools::RunConfig;
using tools::RunRole;

namespace {

std::string value_to_display(const query::Value& v) {
  if (v.is_string()) return std::string(v.as_string());
  // Heuristic: values that look like routable IPv4 addresses print dotted.
  const std::uint64_t u = v.as_uint();
  if (u > 0xffffff && u <= 0xffffffffULL) {
    return util::ipv4_to_string(static_cast<std::uint32_t>(u));
  }
  return std::to_string(u);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

planner::TenantBudget to_budget(const query::TenantDecl& decl) {
  planner::TenantBudget b;
  if (decl.stage_tables != query::kNoTenantLimit) {
    b.stage_tables = static_cast<std::size_t>(decl.stage_tables);
  }
  if (decl.register_bits != query::kNoTenantLimit) {
    b.register_bits = static_cast<std::size_t>(decl.register_bits);
  }
  return b;
}

struct WindowTotals {
  std::uint64_t packets = 0;
  std::uint64_t tuples = 0;
  std::uint64_t detections = 0;
};

// Shared run state the /healthz probe reads from the server thread while
// the window loop writes it. Plain atomics; the probe only needs a
// consistent-enough view of "is the fleet currently degraded".
struct RunHealthState {
  std::atomic<std::uint64_t> windows{0};
  std::atomic<std::uint64_t> partial_windows{0};
  std::atomic<bool> last_partial{false};
  std::atomic<std::uint64_t> last_mask{0};
  std::atomic<std::uint64_t> shed_packets{0};
  std::atomic<bool> done{false};  // window loop finished (CI polls this)
};
RunHealthState g_health;

// SIGINT/SIGTERM flips this so the --introspect linger loop exits.
std::atomic<bool> g_interrupted{false};
extern "C" void handle_stop_signal(int) { g_interrupted.store(true); }

void note_window_health(const runtime::WindowStats& ws) {
  g_health.windows.fetch_add(1, std::memory_order_relaxed);
  g_health.last_partial.store(ws.partial, std::memory_order_relaxed);
  g_health.last_mask.store(ws.contribution_mask, std::memory_order_relaxed);
  if (ws.partial) g_health.partial_windows.fetch_add(1, std::memory_order_relaxed);
  g_health.shed_packets.fetch_add(ws.shed_packets, std::memory_order_relaxed);
}

obs::Health probe_health() {
  obs::Health h;
  h.done = g_health.done.load(std::memory_order_relaxed);
  if (g_health.last_partial.load(std::memory_order_relaxed)) {
    h.ok = false;
    h.detail = "last window closed partial (contribution mask 0x";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(
                      g_health.last_mask.load(std::memory_order_relaxed)));
    h.detail += buf;
    h.detail += ")";
  }
  return h;
}

void print_window(const runtime::WindowStats& ws, WindowTotals& totals) {
  note_window_health(ws);
  totals.packets += ws.packets;
  totals.tuples += ws.tuples_to_sp;
  for (const auto& result : ws.results) {
    for (const auto& t : result.outputs) {
      ++totals.detections;
      std::string row;
      for (std::size_t c = 0; c < t.size(); ++c) {
        if (c) row += ", ";
        row += value_to_display(t.at(c));
      }
      std::printf("window %4llu  [%s]  (%s)\n", static_cast<unsigned long long>(ws.window_index),
                  result.name.c_str(), row.c_str());
    }
  }
}

// Apply every script action staged for `window`: submissions go live at
// this window (the plan swap happened at the previous close), withdrawals
// free their placement. The library keeps a copy of every script-
// referenced query (node trees are shared_ptrs, so copies are cheap), so
// withdraw-then-resubmit cycles work. A rejected submission is fatal only
// when the diagnostic is operator error (unknown query/tenant); a budget
// rejection is reported and the run continues without the query — exactly
// what a production control plane would do.
bool apply_admit_actions(runtime::TelemetryEngine& engine,
                         const std::map<std::string, std::pair<query::Query, std::string>>& library,
                         std::span<const AdmitAction> actions) {
  for (const AdmitAction& a : actions) {
    if (a.submit) {
      const auto it = library.find(a.query);
      if (it == library.end()) {
        std::fprintf(stderr, "admit script line %d: query '%s' is not available to submit\n",
                     a.line, a.query.c_str());
        return false;
      }
      const std::string tenant = !a.tenant.empty() ? a.tenant : it->second.second;
      auto admitted = engine.submit(it->second.first, tenant);
      if (!admitted) {
        std::printf("window %4llu  submit %s REJECTED: %s\n",
                    static_cast<unsigned long long>(a.window), a.query.c_str(),
                    admitted.error().to_string().c_str());
        continue;
      }
      std::printf("window %4llu  submit %s (tenant %s) -> handle %llu\n",
                  static_cast<unsigned long long>(a.window), a.query.c_str(),
                  tenant.empty() ? "default" : tenant.c_str(),
                  static_cast<unsigned long long>(*admitted));
    } else {
      const auto handle = engine.control_plane()->find(a.query);
      if (!handle) {
        std::fprintf(stderr, "admit script line %d: query '%s' is not active\n", a.line,
                     a.query.c_str());
        return false;
      }
      if (auto r = engine.withdraw(*handle); !r) {
        std::fprintf(stderr, "admit script line %d: withdraw failed: %s\n", a.line,
                     r.error().to_string().c_str());
        return false;
      }
      std::printf("window %4llu  withdraw %s\n", static_cast<unsigned long long>(a.window),
                  a.query.c_str());
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed_cfg = tools::parse_run_config(argc, argv);
  if (!parsed_cfg) {
    std::fprintf(stderr, "%s\n", parsed_cfg.error().c_str());
    tools::print_run_usage(stderr);
    return 2;
  }
  const RunConfig& cfg = *parsed_cfg;
  if (cfg.show_help) {
    tools::print_run_usage(stdout);
    return 0;
  }
  util::set_log_level(cfg.log_level);
  const bool wants_journal = !cfg.introspect_hostport.empty() ||
                             !cfg.journal_out_path.empty() || !cfg.postmortem_path.empty();
  if (!cfg.metrics_json_path.empty() || !cfg.metrics_prom_path.empty() || wants_journal) {
    obs::set_enabled(true);
  }
  if (wants_journal) obs::Journal::global().set_enabled(true);
  if (!cfg.trace_out_path.empty()) obs::TraceRecorder::global().set_enabled(true);
  if (!cfg.postmortem_path.empty()) {
    if (!obs::install_crash_handler(cfg.postmortem_path.c_str())) {
      std::fprintf(stderr, "cannot open %s for the crash postmortem\n",
                   cfg.postmortem_path.c_str());
      return 1;
    }
    std::printf("Crash flight recorder armed -> %s\n", cfg.postmortem_path.c_str());
  }
  obs::IntrospectServer introspect;
  if (!cfg.introspect_hostport.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!obs::parse_hostport(cfg.introspect_hostport, host, port)) {
      std::fprintf(stderr, "bad --introspect spec '%s' (want HOST:PORT)\n",
                   cfg.introspect_hostport.c_str());
      return 2;
    }
    introspect.set_health(probe_health);
    if (const std::string err = introspect.start(host, port); !err.empty()) {
      std::fprintf(stderr, "cannot start introspection server: %s\n", err.c_str());
      return 1;
    }
    std::printf("Introspection endpoint listening on %s:%u "
                "(/metrics /snapshot /journal /healthz)\n",
                host.c_str(), static_cast<unsigned>(introspect.port()));
    std::fflush(stdout);  // CI scrapes this line to learn the bound port
  }

  // 1. Queries (plus tenant declarations and per-query tenant tags).
  std::string text;
  if (!read_file(cfg.queries_path, text)) {
    std::fprintf(stderr, "cannot open %s\n", cfg.queries_path.c_str());
    return 1;
  }
  auto parsed = query::parse_queries(text);
  if (!parsed.ok()) {
    for (const auto& e : parsed.errors) {
      std::fprintf(stderr, "%s: %s\n", cfg.queries_path.c_str(), e.to_string().c_str());
    }
    return 1;
  }
  std::printf("Loaded %zu quer%s from %s\n", parsed.queries.size(),
              parsed.queries.size() == 1 ? "y" : "ies", cfg.queries_path.c_str());

  // 2. Admit script (queries a script submits start inactive).
  std::vector<AdmitAction> actions;
  if (!cfg.admit_script_path.empty()) {
    std::string script;
    if (!read_file(cfg.admit_script_path, script)) {
      std::fprintf(stderr, "cannot open %s\n", cfg.admit_script_path.c_str());
      return 1;
    }
    auto parsed_script = tools::parse_admit_script(script);
    if (!parsed_script) {
      std::fprintf(stderr, "%s\n", parsed_script.error().c_str());
      return 1;
    }
    actions = std::move(*parsed_script);
  }

  // 3. Traffic.
  std::vector<net::Packet> trace;
  if (!cfg.pcap_path.empty()) {
    try {
      trace = net::PcapReader(cfg.pcap_path).read_all();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pcap error: %s\n", e.what());
      return 1;
    }
    std::printf("Read %zu packets from %s\n", trace.size(), cfg.pcap_path.c_str());
  } else {
    trace::BackgroundConfig bg;
    bg.duration_sec = cfg.synthetic_sec;
    bg.flows_per_sec = 600.0;
    trace = trace::TraceBuilder(cfg.seed).background(bg).build();
    std::printf("Generated %zu synthetic packets (%.0f s, seed %llu)\n", trace.size(),
                cfg.synthetic_sec, static_cast<unsigned long long>(cfg.seed));
  }
  if (trace.empty()) {
    std::fprintf(stderr, "no packets to process\n");
    return 1;
  }

  std::vector<net::Packet> training;
  if (!cfg.train_pcap_path.empty()) {
    try {
      training = net::PcapReader(cfg.train_pcap_path).read_all();
      std::printf("Training on %zu packets from %s\n", training.size(),
                  cfg.train_pcap_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "training pcap error: %s\n", e.what());
      return 1;
    }
  }

  // 4. Build the engine: plan the initially admitted set over the training
  //    traffic and attach the dynamic control plane. Queries named by a
  //    script submit action are held back for later submission.
  planner::PlannerConfig planner_cfg;
  planner_cfg.mode = cfg.mode;
  planner_cfg.window = util::seconds(cfg.window_sec);
  runtime::EngineBuilder builder;
  builder.topology(cfg.switches, cfg.threads)
      .batch(cfg.batch)
      .pin_workers(cfg.pin)
      .faults(cfg.faults)
      .planner(planner_cfg)
      .training(training.empty() ? trace : training);
  for (const auto& decl : parsed.tenants) builder.tenant(decl.name, to_budget(decl));
  // A query whose FIRST script action is a submit starts inactive; one the
  // script only withdraws (or withdraws before resubmitting) starts live.
  std::map<std::string, bool> first_action;  // name -> first action is submit
  for (const AdmitAction& a : actions) first_action.emplace(a.query, a.submit);
  std::map<std::string, std::pair<query::Query, std::string>> library;
  for (std::size_t i = 0; i < parsed.queries.size(); ++i) {
    const std::string tenant = parsed.query_tenants[i];
    const auto fa = first_action.find(parsed.queries[i].name());
    if (fa != first_action.end()) {
      library.emplace(parsed.queries[i].name(),
                      std::pair<query::Query, std::string>{parsed.queries[i], tenant});
    }
    if (fa != first_action.end() && fa->second) continue;  // script submits it later
    builder.admit(std::move(parsed.queries[i]), tenant);
  }
  for (const auto& [name, submit_first] : first_action) {
    if (submit_first && library.find(name) == library.end()) {
      std::fprintf(stderr, "admit script submits '%s' but %s does not define it\n", name.c_str(),
                   cfg.queries_path.c_str());
      return 1;
    }
  }
  // Distributed roles plan WITHOUT building a driver: every process
  // (collector and each switch node) derives the identical plan from the
  // same seed/queries/training traffic, then deploys only its half.
  std::unique_ptr<runtime::TelemetryEngine> engine_owned;
  runtime::EngineBuilder::PlannedSetup setup;
  const planner::Plan* active_plan = nullptr;
  if (cfg.role == RunRole::kInProcess) {
    auto built = builder.build();
    if (!built) {
      std::fprintf(stderr, "admission failed: %s\n", built.error().to_string().c_str());
      return 1;
    }
    engine_owned = std::move(*built);
    active_plan = &engine_owned->plan();
  } else {
    auto planned = builder.plan_only();
    if (!planned) {
      std::fprintf(stderr, "admission failed: %s\n", planned.error().to_string().c_str());
      return 1;
    }
    setup = std::move(*planned);
    active_plan = &setup.plan;
  }
  std::printf("\n%s\n", active_plan->summary().c_str());
  if (cfg.role == RunRole::kInProcess && (cfg.switches > 1 || cfg.threads > 0)) {
    std::printf("Deploying on %zu switch%s (%zu worker thread%s)\n", cfg.switches,
                cfg.switches == 1 ? "" : "es", cfg.threads, cfg.threads == 1 ? "" : "s");
  }
  if (cfg.faults_configured) {
    std::printf("Fault injection active: %s\n", cfg.faults.to_string().c_str());
  }

  // 5. Optional P4 emission for the switch side.
  if (!cfg.emit_p4_path.empty()) {
    const planner::Plan& plan = *active_plan;
    std::vector<pisa::P4Pipeline> pipelines;
    for (const auto& pq : plan.queries) {
      for (const auto& p : pq.pipelines) {
        if (p.partition == 0) continue;
        pisa::P4Pipeline pp;
        pp.node = p.node.get();
        pp.options.qid = p.qid;
        pp.options.source_index = p.source_index;
        pp.options.level = p.level;
        pp.options.partition = p.partition;
        pp.options.sizing = p.sizing;
        pipelines.push_back(std::move(pp));
      }
    }
    const auto p4 = pisa::generate_p4(plan.switch_config, pipelines);
    std::ofstream out(cfg.emit_p4_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cfg.emit_p4_path.c_str());
      return 1;
    }
    out << p4;
    std::printf("Wrote generated P4 (%zu pipelines, %zu bytes) to %s\n\n", pipelines.size(),
                p4.size(), cfg.emit_p4_path.c_str());
  }

  // 6. Optional Spark job emission for the stream-processor side (the
  //    finest level of each query).
  if (!cfg.emit_spark_path.empty()) {
    std::ofstream out(cfg.emit_spark_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cfg.emit_spark_path.c_str());
      return 1;
    }
    for (const auto& pq : active_plan->queries) {
      std::vector<stream::SparkPipeline> sources;
      const int finest = pq.chain.back();
      for (const auto& p : pq.pipelines) {
        if (p.level != finest) continue;
        sources.push_back({p.node.get(), p.partition, p.source_index});
      }
      out << stream::generate_spark(*pq.base, sources) << "\n";
    }
    std::printf("Wrote generated Spark jobs to %s\n\n", cfg.emit_spark_path.c_str());
  }

  // 7. Run. In-process this is the shared trace-replay loop (optionally
  //    with admit-script actions staged at window boundaries). Distributed
  //    roles instead ship/merge window contributions over the transport:
  //    the collector prints the same detection lines and final summary as
  //    an in-process run, so CI can diff the two outputs byte for byte.
  WindowTotals totals;
  if (cfg.role == RunRole::kSwitch) {
    namespace nt = net::transport;
    auto spec = nt::parse_endpoint(cfg.connect_spec);
    if (!spec) {
      std::fprintf(stderr, "bad --connect spec: %s\n", spec.error().c_str());
      return 2;
    }
    auto transport = nt::make_switch_transport(*spec, cfg.node_index);
    if (!transport) {
      std::fprintf(stderr, "cannot create transport: %s\n", transport.error().c_str());
      return 1;
    }
    runtime::DistributedConfig dcfg;
    dcfg.switches = cfg.switches;
    dcfg.nodes = cfg.nodes;
    dcfg.node_index = cfg.node_index;
    dcfg.batch = cfg.batch;
    dcfg.faults = cfg.faults;
    runtime::SwitchNode node(*active_plan, dcfg, std::move(*transport));
    const std::size_t owned = (cfg.switches + cfg.nodes - 1 - cfg.node_index) / cfg.nodes;
    std::printf("Switch node %u/%u connecting to %s (%zu of %zu shards owned)\n",
                static_cast<unsigned>(cfg.node_index), static_cast<unsigned>(cfg.nodes),
                cfg.connect_spec.c_str(), owned, cfg.switches);
    std::fflush(stdout);
    if (const std::string err = node.run(trace); !err.empty()) {
      std::fprintf(stderr, "switch node %u: %s\n", static_cast<unsigned>(cfg.node_index),
                   err.c_str());
      return 1;
    }
    const runtime::SwitchNode::Stats& st = node.stats();
    std::printf("\nSwitch node %u done: %llu windows, %llu packets, %llu records + "
                "%llu raw + %llu partial entries shipped, %llu winner keys installed\n",
                static_cast<unsigned>(cfg.node_index),
                static_cast<unsigned long long>(st.windows),
                static_cast<unsigned long long>(st.packets),
                static_cast<unsigned long long>(st.records_sent),
                static_cast<unsigned long long>(st.raw_sent),
                static_cast<unsigned long long>(st.partial_entries_sent),
                static_cast<unsigned long long>(st.winner_installs));
  } else if (cfg.role == RunRole::kCollector) {
    namespace nt = net::transport;
    auto spec = nt::parse_endpoint(cfg.listen_spec);
    if (!spec) {
      std::fprintf(stderr, "bad --listen spec: %s\n", spec.error().c_str());
      return 2;
    }
    auto ep = nt::make_collector_endpoint(*spec, cfg.nodes);
    if (!ep) {
      std::fprintf(stderr, "cannot create endpoint: %s\n", ep.error().c_str());
      return 1;
    }
    runtime::DistributedConfig dcfg;
    dcfg.switches = cfg.switches;
    dcfg.nodes = cfg.nodes;
    dcfg.batch = cfg.batch;
    runtime::Collector collector(*active_plan, dcfg, std::move(*ep));
    if (const std::string err = collector.listen(); !err.empty()) {
      std::fprintf(stderr, "collector: %s\n", err.c_str());
      return 1;
    }
    std::printf("Collector listening on %s for %u switch node%s (%zu shards)\n",
                cfg.listen_spec.c_str(), static_cast<unsigned>(cfg.nodes),
                cfg.nodes == 1 ? "" : "s", cfg.switches);
    std::fflush(stdout);  // launchers wait for this line before starting nodes
    if (const std::string err =
            collector.run([&](const runtime::WindowStats& ws) { print_window(ws, totals); });
        !err.empty()) {
      std::fprintf(stderr, "collector: %s\n", err.c_str());
      return 1;
    }
  } else if (actions.empty() && cfg.crash_after > 0) {
    // Manual window loop so we can die on cue: process whole windows and
    // raise SIGSEGV after the Nth — the postmortem path's test hook.
    runtime::TelemetryEngine& engine = *engine_owned;
    const util::Nanos w = engine.plan().window;
    std::span<const net::Packet> rest{trace};
    std::uint64_t closed = 0;
    while (!rest.empty()) {
      const std::uint64_t idx = util::window_index(rest.front().ts, w);
      std::size_t end = 0;
      while (end < rest.size() && util::window_index(rest[end].ts, w) == idx) ++end;
      print_window(engine.process_window(rest.subspan(0, end)), totals);
      rest = rest.subspan(end);
      if (++closed >= cfg.crash_after) {
        std::printf("window %4llu  raising SIGSEGV (--crash-after %llu)\n",
                    static_cast<unsigned long long>(closed - 1),
                    static_cast<unsigned long long>(cfg.crash_after));
        std::fflush(stdout);
        std::raise(SIGSEGV);
      }
    }
  } else if (actions.empty()) {
    for (const auto& ws : engine_owned->run_trace(trace)) print_window(ws, totals);
  } else {
    runtime::TelemetryEngine& engine = *engine_owned;
    const util::Nanos w = engine.plan().window;
    std::span<const net::Packet> rest{trace};
    std::size_t action_next = 0;
    std::uint64_t seq = 0;
    while (!rest.empty()) {
      // Actions staged for window seq+1 are submitted now: the swap lands
      // at this window's close, making them live exactly at seq+1.
      const std::size_t begin_actions = action_next;
      while (action_next < actions.size() && actions[action_next].window <= seq + 1) {
        ++action_next;
      }
      if (!apply_admit_actions(engine, library,
                               {actions.data() + begin_actions, action_next - begin_actions})) {
        return 1;
      }
      const std::uint64_t idx = util::window_index(rest.front().ts, w);
      std::size_t end = 0;
      while (end < rest.size() && util::window_index(rest[end].ts, w) == idx) ++end;
      const auto ws = engine.process_window(rest.subspan(0, end));
      if (ws.plan_swapped) {
        std::printf("window %4llu  plan swapped -> v%llu (%zu queries)\n",
                    static_cast<unsigned long long>(ws.window_index),
                    static_cast<unsigned long long>(engine.plan().version),
                    engine.plan().queries.size());
      }
      print_window(ws, totals);
      rest = rest.subspan(end);
      ++seq;
    }
    for (std::size_t i = action_next; i < actions.size(); ++i) {
      std::fprintf(stderr, "admit script line %d: window %llu is past the end of the trace\n",
                   actions[i].line, static_cast<unsigned long long>(actions[i].window));
    }
  }
  if (cfg.role != RunRole::kSwitch) {
    std::printf("\n%llu detections; stream processor saw %llu of %llu packets (%.4f%%)\n",
                static_cast<unsigned long long>(totals.detections),
                static_cast<unsigned long long>(totals.tuples),
                static_cast<unsigned long long>(totals.packets),
                totals.packets == 0 ? 0.0
                                    : 100.0 * static_cast<double>(totals.tuples) /
                                          static_cast<double>(totals.packets));
  }
  g_health.done.store(true, std::memory_order_relaxed);

  // 8. Observability exports.
  if (!cfg.metrics_json_path.empty() || !cfg.metrics_prom_path.empty()) {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    if (!cfg.metrics_json_path.empty()) {
      std::ofstream out(cfg.metrics_json_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", cfg.metrics_json_path.c_str());
        return 1;
      }
      out << snap.to_json();
      std::printf("Wrote metrics snapshot (%zu counters, %zu gauges, %zu histograms) to %s\n",
                  snap.counters.size(), snap.gauges.size(), snap.histograms.size(),
                  cfg.metrics_json_path.c_str());
    }
    if (!cfg.metrics_prom_path.empty()) {
      std::ofstream out(cfg.metrics_prom_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", cfg.metrics_prom_path.c_str());
        return 1;
      }
      out << snap.to_prometheus();
      std::printf("Wrote Prometheus exposition to %s\n", cfg.metrics_prom_path.c_str());
    }
  }
  if (!cfg.trace_out_path.empty()) {
    std::ofstream out(cfg.trace_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cfg.trace_out_path.c_str());
      return 1;
    }
    out << obs::TraceRecorder::global().to_chrome_json();
    std::printf("Wrote %zu trace spans to %s\n", obs::TraceRecorder::global().size(),
                cfg.trace_out_path.c_str());
  }
  if (!cfg.journal_out_path.empty()) {
    std::ofstream out(cfg.journal_out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cfg.journal_out_path.c_str());
      return 1;
    }
    out << obs::Journal::global().to_json(obs::Journal::capacity());
    std::printf("Wrote event journal (%llu emitted) to %s\n",
                static_cast<unsigned long long>(obs::Journal::global().emitted()),
                cfg.journal_out_path.c_str());
  }

  // 9. With --introspect, linger so the endpoint stays scrapeable after the
  //    trace is done; SIGINT/SIGTERM ends the process cleanly.
  if (introspect.running()) {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::printf("Run complete; introspection endpoint still live on port %u "
                "(SIGINT/SIGTERM to exit)\n",
                static_cast<unsigned>(introspect.port()));
    std::fflush(stdout);
    while (!g_interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    introspect.stop();
  }
  return 0;
}
