#include "run_config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "runtime/limits.h"

namespace sonata::tools {

namespace {

std::optional<planner::PlanMode> mode_from_string(const std::string& s) {
  if (s == "sonata") return planner::PlanMode::kSonata;
  if (s == "all-sp") return planner::PlanMode::kAllSP;
  if (s == "filter-dp") return planner::PlanMode::kFilterDP;
  if (s == "max-dp") return planner::PlanMode::kMaxDP;
  if (s == "fix-ref") return planner::PlanMode::kFixRef;
  return std::nullopt;
}

}  // namespace

void print_run_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: sonata_run --queries FILE [--pcap FILE | --synthetic SECONDS]\n"
               "                  [--train-pcap FILE] [--mode sonata|all-sp|filter-dp|"
               "max-dp|fix-ref]\n"
               "                  [--window SECONDS] [--emit-p4 FILE] [--emit-spark FILE]\n"
               "                  [--switches N] [--threads N] [--batch N] [--pin] [--seed N]\n"
               "                  [--admit-script FILE (lines: WINDOW submit QUERY [tenant NAME]\n"
               "                   | WINDOW withdraw QUERY; queries a script submits start\n"
               "                   inactive and go live at their window)]\n"
               "                  [--fault-spec k=v,... (keys: seed corrupt truncate drop dup\n"
               "                   reorder slow_ns stall_switch stall_from stall_windows\n"
               "                   watchdog_ms shrink hash_seed)]\n"
               "                  [--metrics-json FILE] [--metrics-prom FILE]"
               " [--trace-out FILE]\n"
               "                  [--introspect HOST:PORT (serve /metrics /snapshot /journal\n"
               "                   /healthz live; the process lingers after the run until\n"
               "                   SIGINT/SIGTERM)]\n"
               "                  [--journal-out FILE (event-journal tail as JSON at exit)]\n"
               "                  [--postmortem FILE (arm the crash flight recorder)]\n"
               "                  [--crash-after N (raise SIGSEGV after N windows; test hook)]\n"
               "                  [--role inprocess|switch|collector (multi-process fleet)]\n"
               "                  [--connect shm:PREFIX|udp:HOST:PORT|tcp:HOST:PORT (switch "
               "role)]\n"
               "                  [--listen shm:PREFIX|udp:HOST:PORT|tcp:HOST:PORT (collector "
               "role)]\n"
               "                  [--nodes N (switch-node process count, both roles)]\n"
               "                  [--node-index I (this switch process, 0-based)]\n"
               "                  [--log-level debug|info|warn|error|off] [--verbose]\n");
}

util::Expected<RunConfig, std::string> parse_run_config(int argc, const char* const* argv) {
  RunConfig cfg;
  std::string mode_name = "sonata";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    auto string_flag = [&](std::string& dst) -> util::Expected<util::Ok, std::string> {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      dst = v;
      return util::Ok{};
    };
    if (arg == "--queries") {
      if (auto r = string_flag(cfg.queries_path); !r) return r.error();
    } else if (arg == "--pcap") {
      if (auto r = string_flag(cfg.pcap_path); !r) return r.error();
    } else if (arg == "--train-pcap") {
      if (auto r = string_flag(cfg.train_pcap_path); !r) return r.error();
    } else if (arg == "--emit-p4") {
      if (auto r = string_flag(cfg.emit_p4_path); !r) return r.error();
    } else if (arg == "--emit-spark") {
      if (auto r = string_flag(cfg.emit_spark_path); !r) return r.error();
    } else if (arg == "--admit-script") {
      if (auto r = string_flag(cfg.admit_script_path); !r) return r.error();
    } else if (arg == "--mode") {
      if (auto r = string_flag(mode_name); !r) return r.error();
      const auto mode = mode_from_string(mode_name);
      if (!mode) return "unknown mode: " + mode_name;
      cfg.mode = *mode;
    } else if (arg == "--window") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.window_sec = std::atof(v);
      if (cfg.window_sec <= 0.0) return std::string("--window must be positive");
    } else if (arg == "--synthetic") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.synthetic_sec = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--switches") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.switches = std::strtoull(v, nullptr, 10);
      if (cfg.switches == 0) return std::string("--switches must be >= 1");
      if (std::string err = runtime::switch_count_error(cfg.switches); !err.empty()) {
        return "--switches: " + err;
      }
    } else if (arg == "--threads") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--batch") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.batch = std::strtoull(v, nullptr, 10);
      if (cfg.batch == 0) return std::string("--batch must be >= 1");
    } else if (arg == "--pin") {
      cfg.pin = true;
    } else if (arg == "--fault-spec") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      std::string error;
      const auto spec = fault::parse_fault_spec(v, &error);
      if (!spec) return "bad --fault-spec: " + error;
      cfg.faults = *spec;
      cfg.faults_configured = true;
    } else if (arg == "--metrics-json") {
      if (auto r = string_flag(cfg.metrics_json_path); !r) return r.error();
    } else if (arg == "--metrics-prom") {
      if (auto r = string_flag(cfg.metrics_prom_path); !r) return r.error();
    } else if (arg == "--trace-out") {
      if (auto r = string_flag(cfg.trace_out_path); !r) return r.error();
    } else if (arg == "--introspect") {
      if (auto r = string_flag(cfg.introspect_hostport); !r) return r.error();
      if (cfg.introspect_hostport.find(':') == std::string::npos) {
        return std::string("--introspect wants HOST:PORT (e.g. 127.0.0.1:9100)");
      }
    } else if (arg == "--journal-out") {
      if (auto r = string_flag(cfg.journal_out_path); !r) return r.error();
    } else if (arg == "--postmortem") {
      if (auto r = string_flag(cfg.postmortem_path); !r) return r.error();
    } else if (arg == "--crash-after") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.crash_after = std::strtoull(v, nullptr, 10);
      if (cfg.crash_after == 0) return std::string("--crash-after must be >= 1");
    } else if (arg == "--role") {
      std::string role_name;
      if (auto r = string_flag(role_name); !r) return r.error();
      if (role_name == "inprocess") {
        cfg.role = RunRole::kInProcess;
      } else if (role_name == "switch") {
        cfg.role = RunRole::kSwitch;
      } else if (role_name == "collector") {
        cfg.role = RunRole::kCollector;
      } else {
        return "unknown role: " + role_name + " (want inprocess|switch|collector)";
      }
    } else if (arg == "--listen") {
      if (auto r = string_flag(cfg.listen_spec); !r) return r.error();
    } else if (arg == "--connect") {
      if (auto r = string_flag(cfg.connect_spec); !r) return r.error();
    } else if (arg == "--nodes") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      const auto n = std::strtoull(v, nullptr, 10);
      if (n == 0 || n > 256) return std::string("--nodes must be in [1, 256]");
      cfg.nodes = static_cast<std::uint16_t>(n);
    } else if (arg == "--node-index") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      cfg.node_index = static_cast<std::uint16_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--log-level") {
      const char* v = value();
      if (!v) return "missing value for " + arg;
      const auto level = util::log_level_from_string(v);
      if (!level) return std::string("unknown log level: ") + v + " (want debug|info|warn|error|off)";
      cfg.log_level = *level;
    } else if (arg == "--verbose") {
      // Alias for --log-level info (never reduces verbosity).
      if (static_cast<int>(cfg.log_level) > static_cast<int>(util::LogLevel::kInfo)) {
        cfg.log_level = util::LogLevel::kInfo;
      }
    } else if (arg == "--help" || arg == "-h") {
      cfg.show_help = true;
      return cfg;
    } else {
      return "unknown flag: " + arg;
    }
  }
  if (cfg.queries_path.empty()) return std::string("--queries is required");
  if (cfg.pcap_path.empty() && cfg.synthetic_sec <= 0.0) {
    return std::string("need --pcap FILE or --synthetic SECONDS");
  }
  if (cfg.role == RunRole::kSwitch && cfg.connect_spec.empty()) {
    return std::string("--role switch requires --connect");
  }
  if (cfg.role == RunRole::kCollector && cfg.listen_spec.empty()) {
    return std::string("--role collector requires --listen");
  }
  if (cfg.role == RunRole::kInProcess && (!cfg.listen_spec.empty() || !cfg.connect_spec.empty())) {
    return std::string("--listen/--connect need --role collector/switch");
  }
  if (cfg.role == RunRole::kSwitch && cfg.node_index >= cfg.nodes) {
    return std::string("--node-index must be < --nodes");
  }
  if (cfg.role != RunRole::kInProcess && !cfg.admit_script_path.empty()) {
    return std::string("--admit-script is not supported in distributed roles");
  }
  if (cfg.role != RunRole::kInProcess && cfg.crash_after > 0) {
    return std::string("--crash-after is not supported in distributed roles");
  }
  return cfg;
}

util::Expected<std::vector<AdmitAction>, std::string> parse_admit_script(std::string_view text) {
  std::vector<AdmitAction> actions;
  int line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string window_tok;
    if (!(fields >> window_tok)) continue;  // blank/comment line
    const auto err = [&](const std::string& what) {
      return "admit script line " + std::to_string(line_no) + ": " + what;
    };
    AdmitAction a;
    a.line = line_no;
    char* end = nullptr;
    a.window = std::strtoull(window_tok.c_str(), &end, 10);
    if (end == window_tok.c_str() || *end != '\0') {
      return err("expected a window number, got '" + window_tok + "'");
    }
    std::string verb;
    if (!(fields >> verb)) return err("expected submit or withdraw");
    if (verb == "submit") {
      a.submit = true;
    } else if (verb == "withdraw") {
      a.submit = false;
    } else {
      return err("unknown action '" + verb + "' (want submit or withdraw)");
    }
    if (!(fields >> a.query)) return err("expected a query name");
    std::string tok;
    if (fields >> tok) {
      if (tok != "tenant" || !a.submit) return err("unexpected trailing '" + tok + "'");
      if (!(fields >> a.tenant)) return err("expected a tenant name after 'tenant'");
      if (fields >> tok) return err("unexpected trailing '" + tok + "'");
    }
    if (a.submit && a.window == 0) {
      return err("submit at window 0 is the initial admission; list the query without a script");
    }
    actions.push_back(std::move(a));
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const AdmitAction& x, const AdmitAction& y) { return x.window < y.window; });
  return actions;
}

}  // namespace sonata::tools
