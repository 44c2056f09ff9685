// sonata_perfbench: the repository's end-to-end benchmark.
//
//   sonata_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scratch-dir <dir>] [--git-rev <rev>]
//
// --trace 0 replays the workload's seeded trace through its driver and
// reports the end-to-end metrics; --trace 1 is the separate traced run that
// reports per-layer metrics. Either way every checked window is verified
// against the workload's ground truth, and the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/transport/transport.h"
#include "obs/metrics.h"
#include "runtime/distributed.h"
#include "runtime/control_plane.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "runtime/plan_install.h"
#include "runtime/runtime.h"
#include "stats.h"
#include "util/cpu.h"
#include "workload.h"

namespace {

using namespace perfbench;
namespace rt = sonata::runtime;
namespace nt = sonata::net::transport;
using sonata::net::Packet;

// Timed passes per run are at least this many. The timing figures keep the
// fastest third of each window's repeats: at least 5 of each, 120 windows,
// so a p90 has ten or more windows beyond it.
constexpr std::size_t kMinTimedPasses = 13;
constexpr int kSetupReps = 5;
// Passes per distributed session: windows 0-1 of a session are warm-up
// (they include the handshake), the other 94 are timed.
constexpr std::size_t kSessionPasses = 4;
constexpr std::size_t kSessionWarmupWindows = 2;
constexpr std::size_t kMaxTraceEvents = 60000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-run";
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "sonata_perfbench: %s\nusage: sonata_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch-dir <dir>] [--git-rev <rev>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--scratch-dir") {
      a.scratch = v;
    } else if (flag == "--git-rev") {
      a.git_rev = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_spec(a.workload) == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// -- process probes -------------------------------------------------------

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Hands freed heap pages back to the kernel, so the RSS baseline and the
// set-ups repeated within a run do not carry over into the next peak.
void release_freed_memory() { ::malloc_trim(0); }

std::uint64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  const auto b = line.find('['), e = line.find(']');
  return b != std::string::npos && e != std::string::npos && e > b ? line.substr(b + 1, e - b - 1)
                                                                   : "unknown";
}

double secs_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

// A ratio that reads 0 where the layer did no work.
double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -- metric output --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt_num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// -- window bookkeeping ---------------------------------------------------

struct Tally {
  static constexpr std::size_t kNoPass = ~std::size_t{0};
  std::vector<double> window_ms;
  std::vector<double> close_ms;
  std::vector<std::size_t> window_pass;  // index into pass_s, or kNoPass
  std::vector<std::size_t> window_index;  // window in its pass
  std::uint64_t windows = 0;  // timed (checked) windows
  std::uint64_t failed = 0;
  std::uint64_t packets = 0;
  std::uint64_t tuples_to_sp = 0;
  double busy_s = 0.0;  // sum of timed window spans
  // Per whole timed pass (every pass holds the same packets): wall time
  // from its first ingest to its last result, and process CPU time.
  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;
  std::vector<std::uint64_t> pass_digests;
  std::vector<std::string> failures;

  void check(const Workload& w, const rt::WindowStats& ws, std::size_t window_in_pass) {
    ++windows;
    packets += ws.packets;
    tuples_to_sp += ws.tuples_to_sp;
    const std::string err = check_window(w, ws, window_in_pass);
    if (!err.empty()) {
      ++failed;
      if (failures.size() < 5) {
        failures.push_back("window " + std::to_string(window_in_pass) + ": " + err);
      }
    }
  }
  [[nodiscard]] bool digests_agree() const {
    return std::all_of(pass_digests.begin(), pass_digests.end(),
                       [&](std::uint64_t d) { return d == pass_digests.front(); });
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool same_window(const rt::WindowStats& a, const rt::WindowStats& b) {
  if (a.packets != b.packets || a.tuples_to_sp != b.tuples_to_sp ||
      a.raw_mirror_packets != b.raw_mirror_packets || a.overflow_records != b.overflow_records ||
      a.control_update_millis != b.control_update_millis || a.partial != b.partial ||
      !(a.winners == b.winners) || a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].qid != b.results[i].qid || a.results[i].name != b.results[i].name ||
        !(a.results[i].outputs == b.results[i].outputs)) {
      return false;
    }
  }
  return true;
}

// -- engines --------------------------------------------------------------

rt::EngineBuilder builder_for(const Workload& w) {
  rt::EngineBuilder b;
  b.topology(w.spec->switches, w.spec->workers)
      .batch(kBatch)
      .planner(w.planner_config())
      .training(w.training)
      .admit(w.queries());
  return b;
}

std::unique_ptr<rt::TelemetryEngine> build_engine(const Workload& w) {
  auto built = builder_for(w).build();
  if (!built) throw std::runtime_error("engine build failed: " + built.error().message);
  return std::move(*built);
}

rt::EngineBuilder::PlannedSetup plan_only(const Workload& w) {
  auto planned = builder_for(w).plan_only();
  if (!planned) throw std::runtime_error("planning failed: " + planned.error().message);
  return std::move(*planned);
}

// Feeds one pass of the workload through `engine`, window by window.
// `on_window(window_in_pass, stats, window_ns, close_ns, ingest_ns)`.
template <typename Fn>
void engine_pass(rt::TelemetryEngine& engine, const Workload& w, Fn&& on_window) {
  for (std::size_t win = 0; win < kPassWindows; ++win) {
    const auto packets = w.window(win);
    const std::uint64_t t0 = now_ns();
    for (const Packet& p : packets) engine.ingest(p);
    const std::uint64_t t1 = now_ns();
    rt::WindowStats ws = engine.close_window();
    const std::uint64_t t2 = now_ns();
    on_window(win, ws, t2 - t0, t2 - t1, t1 - t0);
  }
}

// -- distributed sessions ---------------------------------------------------

// A switch node's transport, wrapped from outside: it stamps the first
// kWindowEnd a node sends for each window and the kWindowAck that releases
// it, so the barrier can be timed without spans inside the program.
class TimedTransport final : public nt::ReportTransport {
 public:
  explicit TimedTransport(std::unique_ptr<nt::ReportTransport> inner) : inner_(std::move(inner)) {}

  std::string connect(int timeout_ms) override { return inner_->connect(timeout_ms); }
  bool send(const nt::Frame& f) override {
    if (f.type == nt::FrameType::kWindowEnd && end_ns.size() == ack_ns.size()) {
      end_ns.push_back(now_ns());
    }
    return inner_->send(f);
  }
  bool poll(nt::Frame& out, int timeout_ms) override {
    const bool got = inner_->poll(out, timeout_ms);
    if (got && out.type == nt::FrameType::kWindowAck && ack_ns.size() < end_ns.size()) {
      ack_ns.push_back(now_ns());
    }
    return got;
  }
  [[nodiscard]] const nt::TransportCounters& counters() const noexcept override {
    return inner_->counters();
  }
  [[nodiscard]] nt::TransportKind kind() const noexcept override { return inner_->kind(); }

  // Written by the node's thread only; read after it is joined.
  std::vector<std::uint64_t> end_ns;
  std::vector<std::uint64_t> ack_ns;

 private:
  std::unique_ptr<nt::ReportTransport> inner_;
};

// One collector and its switch nodes over shm rings under `prefix`; the
// ring files are removed when the session is destroyed.
class DistSession {
 public:
  DistSession(const sonata::planner::Plan& plan, const Spec& spec, std::string prefix)
      : prefix_(std::move(prefix)) {
    const auto ep_spec = nt::parse_endpoint("shm:" + prefix_);
    if (!ep_spec) throw std::runtime_error("bad shm spec: " + ep_spec.error());
    rt::DistributedConfig cfg;
    cfg.switches = spec.switches;
    cfg.nodes = static_cast<std::uint16_t>(spec.nodes);
    cfg.batch = kBatch;
    auto ep = nt::make_collector_endpoint(*ep_spec, cfg.nodes);
    if (!ep) throw std::runtime_error("collector endpoint: " + ep.error());
    collector_ = std::make_unique<rt::Collector>(plan, cfg, std::move(*ep));
    if (const std::string err = collector_->listen(); !err.empty()) {
      throw std::runtime_error("collector listen: " + err);
    }
    for (std::uint16_t n = 0; n < cfg.nodes; ++n) {
      auto t = nt::make_switch_transport(*ep_spec, n);
      if (!t) throw std::runtime_error("switch transport: " + t.error());
      auto timed = std::make_unique<TimedTransport>(std::move(*t));
      transports_.push_back(timed.get());
      rt::DistributedConfig ncfg = cfg;
      ncfg.node_index = n;
      nodes_.push_back(std::make_unique<rt::SwitchNode>(plan, ncfg, std::move(timed)));
    }
  }
  DistSession(const DistSession&) = delete;
  DistSession& operator=(const DistSession&) = delete;
  ~DistSession() {
    nodes_.clear();
    collector_.reset();
    for (std::size_t n = 0; n < transports_.size(); ++n) {
      for (const char* dir : {".up", ".down"}) {
        ::unlink((prefix_ + ".n" + std::to_string(n) + dir).c_str());
      }
    }
  }

  struct Outcome {
    std::vector<std::uint64_t> result_ns;  // collector result time per window
    std::uint64_t collector_cpu_ns = 0;
    std::vector<std::uint64_t> node_cpu_ns;
    std::string error;
  };

  // Replays `trace` on every node thread; `on_window(index, stats)` runs on
  // the collector thread as each window closes.
  template <typename Fn>
  Outcome run(std::span<const Packet> trace, Fn&& on_window) {
    Outcome out;
    out.node_cpu_ns.assign(nodes_.size(), 0);
    std::vector<std::string> node_err(nodes_.size());
    std::string collector_err;
    std::thread collector([&] {
      const std::uint64_t c0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
      std::size_t index = 0;
      try {
        collector_err = collector_->run([&](const rt::WindowStats& ws) {
          out.result_ns.push_back(now_ns());
          on_window(index++, ws);
        });
      } catch (const std::exception& e) {
        collector_err = e.what();
      }
      out.collector_cpu_ns = clock_ns(CLOCK_THREAD_CPUTIME_ID) - c0;
    });
    std::vector<std::thread> threads;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      threads.emplace_back([&, n] {
        const std::uint64_t c0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        try {
          node_err[n] = nodes_[n]->run(trace);
        } catch (const std::exception& e) {
          node_err[n] = e.what();
        }
        out.node_cpu_ns[n] = clock_ns(CLOCK_THREAD_CPUTIME_ID) - c0;
      });
    }
    for (auto& t : threads) t.join();
    collector.join();
    out.error = collector_err;
    for (const auto& e : node_err) {
      if (out.error.empty() && !e.empty()) out.error = e;
    }
    return out;
  }

  [[nodiscard]] const rt::Collector& collector() const { return *collector_; }
  [[nodiscard]] const std::vector<std::unique_ptr<rt::SwitchNode>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<TimedTransport*>& transports() const { return transports_; }

 private:
  std::string prefix_;
  std::unique_ptr<rt::Collector> collector_;
  std::vector<std::unique_ptr<rt::SwitchNode>> nodes_;
  std::vector<TimedTransport*> transports_;  // owned by nodes_
};

std::string ring_prefix(const Args& a, int session) {
  return a.scratch + "/ring." + std::to_string(::getpid()) + "." + std::to_string(session);
}

// -- context ---------------------------------------------------------------

void print_context(const Args& a, const Workload& w, const Tally& t) {
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"git_rev\": \"%s\", \"available_cores\": %zu, \"hardware_threads\": %u, "
      "\"simd\": \"%s\", \"thp\": \"%s\", \"busy_threads\": %zu, \"trace\": %d, "
      "\"pass_packets\": %zu, \"timed_windows\": %" PRIu64 ", \"timed_packets\": %" PRIu64
      ", \"pass_digest\": \"%s\", \"digests_agree\": %s}\n",
      w.spec->name, a.seed, a.git_rev.c_str(), sonata::util::available_cores(),
      std::thread::hardware_concurrency(), sonata::util::simd_level(), thp_mode().c_str(),
      w.spec->busy_threads(), a.trace ? 1 : 0, w.pass.size(), t.windows, t.packets,
      t.pass_digests.empty() ? "none" : hex(t.pass_digests.front()).c_str(),
      t.digests_agree() ? "true" : "false");
  for (const auto& f : t.failures) std::printf("failed %s\n", f.c_str());
}

// -- end-to-end run --------------------------------------------------------

// Every pass replays the same packets, and its windows compute the same
// results (the pass digests must agree), so the timed repeats of one window
// of the trace do the same work and differ only by what else the machine
// did meanwhile. Outside load on a shared host only adds time, to whole
// stretches of a run and to single windows within it; each timing figure
// therefore keeps, per window of the trace, the fastest third of its
// repeats. A change to the code still shows because it moves every repeat.
std::vector<std::vector<double>> fastest_repeats(const Tally& t, const std::vector<double>& ms) {
  std::vector<std::size_t> window(t.window_pass.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = t.window_pass[i] == Tally::kNoPass ? kPassWindows : t.window_index[i];
  }
  return smallest_third_per_group(ms, window, kPassWindows);
}

// The faster half of the timed passes, by wall time.
std::vector<bool> faster_passes(const std::vector<double>& pass_s) {
  std::vector<std::size_t> order(pass_s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return pass_s[x] < pass_s[y]; });
  std::vector<bool> kept(pass_s.size(), false);
  for (std::size_t i = 0; i < (order.size() + 1) / 2; ++i) kept[order[i]] = true;
  return kept;
}

// The `windows` line lists every timed window as
// pass/window-in-pass/window-ms/close-ms, pass "-" for a session's warm-up
// pass on dist-shm, which no figure uses.
void print_samples(const Tally& t, const std::vector<double>& setup) {
  std::size_t kept = 0;
  for (const auto& g : fastest_repeats(t, t.window_ms)) kept += g.size();
  std::printf(
      "samples windows=%zu passes=%zu timed_s=%.3f kept_windows=%zu kept_passes=%zu "
      "setup_reps=%zu\n",
      t.window_ms.size(), t.pass_s.size(), t.busy_s, kept, (t.pass_s.size() + 1) / 2,
      setup.size());
  std::printf("passes");
  for (std::size_t i = 0; i < t.pass_s.size(); ++i) {
    std::printf(" %.4f/%.4f", t.pass_s[i], t.pass_cpu_s[i]);
  }
  std::printf("\nwindows");
  for (std::size_t i = 0; i < t.window_ms.size(); ++i) {
    const std::string pass =
        t.window_pass[i] == Tally::kNoPass ? "-" : std::to_string(t.window_pass[i]);
    std::printf(" %s/%zu/%.4f/%.4f", pass.c_str(), t.window_index[i], t.window_ms[i],
                t.close_ms[i]);
  }
  std::printf("\nsetup");
  for (const double s : setup) std::printf(" %.4f", s);
  std::printf("\n");
}

// Window and close percentiles are taken over the fastest third of each
// window's repeats, window and close times each ranked by themselves.
// Throughput is the packets of one pass over the sum of the windows'
// median kept times. CPU time is read per pass, so its figure is the
// median over the faster half of the passes.
std::vector<Metric> e2e_metrics(const Tally& t, const Workload& w, double setup_s,
                                double mem_mb) {
  const auto flat = [](const std::vector<std::vector<double>>& groups) {
    std::vector<double> out;
    for (const auto& g : groups) out.insert(out.end(), g.begin(), g.end());
    return out;
  };
  const auto window_repeats = fastest_repeats(t, t.window_ms);
  const std::vector<double> window_ms = flat(window_repeats);
  const std::vector<double> close_ms = flat(fastest_repeats(t, t.close_ms));
  double typical_pass_ms = 0.0;
  for (const auto& g : window_repeats) typical_pass_ms += median(g);
  const std::vector<bool> kept = faster_passes(t.pass_s);
  std::vector<double> pass_cpu_s;
  for (std::size_t p = 0; p < kept.size(); ++p) {
    if (kept[p]) pass_cpu_s.push_back(t.pass_cpu_s[p]);
  }
  const auto pct = [&](const std::vector<double>& v, double p) {
    const auto x = percentile(v, p);
    if (!x) throw std::runtime_error("too few timed windows for a p" + fmt_num(p));
    return *x;
  };
  const double windows = static_cast<double>(t.windows);
  const double pass_packets = static_cast<double>(w.pass.size());
  return {
      {"pps", pass_packets / (typical_pass_ms / 1e3), "pkt/s"},
      {"window_ms_p50", pct(window_ms, 50), "ms"},
      {"window_ms_p90", pct(window_ms, 90), "ms"},
      {"close_ms_p50", pct(close_ms, 50), "ms"},
      {"close_ms_p90", pct(close_ms, 90), "ms"},
      {"tuples_to_sp_per_window", static_cast<double>(t.tuples_to_sp) / windows, "count"},
      {"setup_s", setup_s, "s"},
      {"mem_mb", mem_mb, "MB"},
      {"cpu_ns_per_pkt", median(pass_cpu_s) * 1e9 / pass_packets, "ns"},
  };
}

int run_e2e_engine(const Args& a, const Workload& w) {
  release_freed_memory();
  const std::uint64_t rss_base = rss_bytes();
  std::uint64_t rss_peak = rss_base;
  std::vector<double> setup;
  std::unique_ptr<rt::TelemetryEngine> engine;
  for (int r = 0; r < kSetupReps; ++r) {
    engine.reset();
    release_freed_memory();
    const std::uint64_t t0 = now_ns();
    engine = build_engine(w);
    setup.push_back(secs_since(t0));
    rss_peak = std::max(rss_peak, rss_bytes());
  }

  Tally t;
  engine_pass(*engine, w, [&](std::size_t, const rt::WindowStats&, std::uint64_t, std::uint64_t,
                              std::uint64_t) { rss_peak = std::max(rss_peak, rss_bytes()); });
  while (t.busy_s < a.seconds || t.pass_s.size() < kMinTimedPasses) {
    Digest pass;
    double pass_s = 0.0;
    const std::uint64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    engine_pass(*engine, w,
                [&](std::size_t win, const rt::WindowStats& ws, std::uint64_t window_ns,
                    std::uint64_t close_ns, std::uint64_t) {
                  t.window_ms.push_back(static_cast<double>(window_ns) / 1e6);
                  t.close_ms.push_back(static_cast<double>(close_ns) / 1e6);
                  t.window_pass.push_back(t.pass_s.size());
                  t.window_index.push_back(win);
                  pass_s += static_cast<double>(window_ns) / 1e9;
                  t.check(w, ws, win);
                  pass.add(ws);
                  rss_peak = std::max(rss_peak, rss_bytes());
                });
    t.pass_cpu_s.push_back(static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9);
    t.pass_s.push_back(pass_s);
    t.busy_s += pass_s;
    t.pass_digests.push_back(pass.value());
  }

  print_context(a, w, t);
  print_samples(t, setup);
  const double mem_mb = static_cast<double>(rss_peak - rss_base) / (1024.0 * 1024.0);
  print_result(t.failed == 0 && t.digests_agree(), t.windows, t.failed,
               e2e_metrics(t, w, median(setup), mem_mb));
  return 0;
}

int run_e2e_dist(const Args& a, const Workload& w) {
  const std::vector<Packet> trace = looped(w, kSessionPasses);
  release_freed_memory();
  const std::uint64_t rss_base = rss_bytes();
  std::uint64_t rss_peak = rss_base;
  std::vector<double> setup;
  std::unique_ptr<rt::EngineBuilder::PlannedSetup> planned;
  std::unique_ptr<DistSession> session;
  int session_id = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    session.reset();
    planned.reset();
    release_freed_memory();
    const std::uint64_t t0 = now_ns();
    planned = std::make_unique<rt::EngineBuilder::PlannedSetup>(plan_only(w));
    session = std::make_unique<DistSession>(planned->plan, *w.spec, ring_prefix(a, session_id++));
    setup.push_back(secs_since(t0));
    rss_peak = std::max(rss_peak, rss_bytes());
  }

  Tally t;
  while (t.busy_s < a.seconds || t.pass_s.size() < kMinTimedPasses) {
    if (!session) {
      session = std::make_unique<DistSession>(planned->plan, *w.spec, ring_prefix(a, session_id++));
    }
    std::vector<rt::WindowStats> held;  // checked after the session, off the timed path
    held.reserve(kSessionPasses * kPassWindows);
    std::vector<std::uint64_t> pass_end_cpu;  // process CPU at each pass's last result
    const auto out = session->run(trace, [&](std::size_t index, const rt::WindowStats& ws) {
      if ((index + 1) % kPassWindows == 0) {
        pass_end_cpu.push_back(clock_ns(CLOCK_PROCESS_CPUTIME_ID));
      }
      held.push_back(ws);
      rss_peak = std::max(rss_peak, rss_bytes());
    });
    if (!out.error.empty()) throw std::runtime_error("distributed session: " + out.error);
    if (held.size() != kSessionPasses * kPassWindows) {
      throw std::runtime_error("session closed " + std::to_string(held.size()) + " windows");
    }
    for (std::size_t p = 1; p < kSessionPasses; ++p) {
      const std::size_t last = (p + 1) * kPassWindows - 1;
      t.pass_s.push_back(static_cast<double>(out.result_ns[last] -
                                             out.result_ns[last - kPassWindows]) / 1e9);
      t.pass_cpu_s.push_back(static_cast<double>(pass_end_cpu[p] - pass_end_cpu[p - 1]) / 1e9);
    }
    std::vector<std::uint64_t> end_ns(held.size(), 0);
    for (const TimedTransport* tt : session->transports()) {
      for (std::size_t i = 0; i < tt->end_ns.size() && i < end_ns.size(); ++i) {
        end_ns[i] = std::max(end_ns[i], tt->end_ns[i]);
      }
    }
    const std::size_t first_pass = t.pass_s.size() - (kSessionPasses - 1);  // session pass 1
    Digest pass;
    for (std::size_t i = 0; i < held.size(); ++i) {
      const std::size_t win = i % kPassWindows;
      if (i >= kSessionWarmupWindows) {
        const double window_ns = static_cast<double>(out.result_ns[i] - out.result_ns[i - 1]);
        t.window_ms.push_back(window_ns / 1e6);
        t.close_ms.push_back(static_cast<double>(out.result_ns[i] - end_ns[i]) / 1e6);
        t.window_pass.push_back(i < kPassWindows ? Tally::kNoPass
                                                 : first_pass + i / kPassWindows - 1);
        t.window_index.push_back(win);
        t.busy_s += window_ns / 1e9;
        t.check(w, held[i], win);
      }
      if (i >= kPassWindows) {
        pass.add(held[i]);
        if (win + 1 == kPassWindows) {
          t.pass_digests.push_back(pass.value());
          pass = Digest{};
        }
      }
    }
    session.reset();
    release_freed_memory();
  }

  print_context(a, w, t);
  print_samples(t, setup);
  const double mem_mb = static_cast<double>(rss_peak - rss_base) / (1024.0 * 1024.0);
  print_result(t.failed == 0 && t.digests_agree(), t.windows, t.failed,
               e2e_metrics(t, w, median(setup), mem_mb));
  return 0;
}

// -- traced run --------------------------------------------------------------

// The workload's own driver replays this many passes in the traced run:
// pass 0 is warm-up, the others are checked.
constexpr std::size_t kDriverPasses = 2;
// The layered loop, and Runtime as its reference, replay this many passes:
// pass 0 is warm-up, the others are timed. Every window is compared.
constexpr std::size_t kLayeredPasses = 3;

struct LayeredRun {
  std::vector<rt::WindowStats> plain_windows;
  std::vector<rt::WindowStats> traced_windows;
  double plain_s = 0.0;   // timed passes
  double traced_s = 0.0;  // timed passes, measurement work excluded
  LayerCounts counts;     // traced loop, every pass
  std::vector<std::pair<std::string, std::uint64_t>> ingest_tuples;
};

// Replays `passes` passes through the layered loop untraced and traced,
// alternating the two window by window so drift in machine speed hits both
// alike; pass 0 is warm-up.
LayeredRun run_layered(const sonata::planner::Plan& plan, const Workload& w, std::size_t passes,
                       SpanLog& spans) {
  LayeredRun out;
  LayeredRuntime plain(plan, kBatch, nullptr);
  LayeredRuntime traced(plan, kBatch, &spans);
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t win = 0; win < kPassWindows; ++win) {
      const std::uint64_t t0 = now_ns();
      out.plain_windows.push_back(plain.run_window(w.window(win)));
      const std::uint64_t t1 = now_ns();
      const std::size_t first_span = spans.spans().size();
      out.traced_windows.push_back(traced.run_window(w.window(win)));
      std::uint64_t traced_ns = now_ns() - t1;
      for (std::size_t i = first_span; i < spans.spans().size(); ++i) {
        const auto& s = spans.spans()[i];
        const bool nested = s.parent != SpanLog::kNone &&
                            spans.name(spans.spans()[s.parent].name).starts_with("instrument.");
        if (spans.name(s.name).starts_with("instrument.") && !nested) {
          traced_ns -= s.end_ns - s.start_ns;
        }
      }
      if (p > 0) {
        out.plain_s += static_cast<double>(t1 - t0) / 1e9;
        out.traced_s += static_cast<double>(traced_ns) / 1e9;
      }
    }
  }
  out.counts = traced.counts();
  out.ingest_tuples = traced.ingest_tuples();
  return out;
}

std::uint64_t pass_digest(const std::vector<rt::WindowStats>& windows, std::size_t pass) {
  Digest d;
  for (std::size_t i = pass * kPassWindows; i < (pass + 1) * kPassWindows; ++i) d.add(windows[i]);
  return d.value();
}

void add_phases(rt::PhaseBreakdown& sum, const rt::PhaseBreakdown& p) {
  sum.ingest_nanos += p.ingest_nanos;
  sum.compute_nanos += p.compute_nanos;
  sum.merge_nanos += p.merge_nanos;
  sum.poll_nanos += p.poll_nanos;
  sum.close_nanos += p.close_nanos;
}

// Per-layer figures of the layered loop on one plan and trace.
struct LayerReport {
  std::vector<Metric> metrics;  // named as in BENCHMARK.json
  std::vector<Metric> detail;   // per-pipeline and per-executor rows
  // Runtime, the reference, over the timed passes: its phase split (obs on)
  // and N per window.
  rt::PhaseBreakdown runtime_phases;
  std::uint64_t runtime_packets = 0;
  double runtime_tuples_per_window = 0.0;
};

// Replays `w` through Runtime on `plan` (obs on), then through the layered
// loop untraced and traced. Every layered window must equal Runtime's. When
// `truth` is set, Runtime's timed windows are also checked against the
// ground truth into it. The traced loop's spans are printed under `label`
// and written to a Perfetto trace named after it.
LayerReport layer_report(const Args& a, const sonata::planner::Plan& plan, const Workload& w,
                         const std::string& label, Tally* truth,
                         std::vector<std::string>& problems) {
  LayerReport r;
  std::vector<rt::WindowStats> runtime_windows;
  std::uint64_t runtime_tuples = 0;
  {
    sonata::obs::set_enabled(true);
    rt::Runtime runtime(plan, kBatch);
    for (std::size_t p = 0; p < kLayeredPasses; ++p) {
      engine_pass(runtime, w,
                  [&](std::size_t win, rt::WindowStats& ws, std::uint64_t, std::uint64_t,
                      std::uint64_t) {
                    if (p > 0) {
                      add_phases(r.runtime_phases, ws.phases);
                      r.runtime_packets += ws.packets;
                      runtime_tuples += ws.tuples_to_sp;
                      if (truth != nullptr) truth->check(w, ws, win);
                    }
                    runtime_windows.push_back(std::move(ws));
                  });
    }
    sonata::obs::set_enabled(false);
  }
  if (truth != nullptr) {
    for (std::size_t p = 1; p < kLayeredPasses; ++p) {
      truth->pass_digests.push_back(pass_digest(runtime_windows, p));
    }
  }
  r.runtime_tuples_per_window =
      static_cast<double>(runtime_tuples) / static_cast<double>((kLayeredPasses - 1) * kPassWindows);

  SpanLog spans;
  const LayeredRun layered = run_layered(plan, w, kLayeredPasses, spans);
  std::size_t mismatches = 0;
  for (const auto* windows : {&layered.plain_windows, &layered.traced_windows}) {
    if (windows->size() != runtime_windows.size()) {
      problems.push_back(label + ": layered loop closed too few windows");
    }
    for (std::size_t i = 0; i < std::min(windows->size(), runtime_windows.size()); ++i) {
      if (!same_window((*windows)[i], runtime_windows[i])) ++mismatches;
    }
  }
  if (mismatches > 0) {
    problems.push_back(label + ": " + std::to_string(mismatches) +
                       " layered windows differ from Runtime's");
  }
  const LayerCounts& c = layered.counts;
  if (c.codec_failures > 0) {
    problems.push_back(label + ": " + std::to_string(c.codec_failures) + " codec replays differ");
  }

  // Spans and counts cover the same windows (every pass), so their ratios
  // are consistent.
  const std::vector<SpanLog::Totals> totals = spans.totals();
  const auto find = [&](std::string_view name) -> const SpanLog::Totals* {
    for (const auto& tt : totals) {
      if (tt.name == name) return &tt;
    }
    return nullptr;
  };
  const auto self_ns = [&](std::string_view name) {
    const auto* tt = find(name);
    return tt != nullptr ? static_cast<double>(tt->self_ns) : 0.0;
  };
  const auto total_ns = [&](std::string_view name) {
    const auto* tt = find(name);
    return tt != nullptr ? static_cast<double>(tt->total_ns) : 0.0;
  };
  const double pkts = static_cast<double>(c.packets);
  const double wins = static_cast<double>(c.windows);
  const double records = static_cast<double>(c.records);

  double pipelines_ns = 0.0;
  for (const auto& tt : totals) {
    if (!tt.name.starts_with("instrument.pipeline.")) continue;
    pipelines_ns += static_cast<double>(tt.self_ns);
    r.detail.push_back({"pisa.pipeline_ns_per_pkt." + tt.name.substr(20),
                        per(static_cast<double>(tt.self_ns), pkts), "ns"});
  }
  double stream_ns = 0.0, stream_tuples = 0.0;
  for (const auto& [name, n] : layered.ingest_tuples) {
    const double ns = total_ns(name);
    stream_ns += ns;
    stream_tuples += static_cast<double>(n);
    r.detail.push_back({"stream.ingest_ns_per_tuple." + name.substr(14),
                        per(ns, static_cast<double>(n)), "ns"});
  }
  const double timed_packets = static_cast<double>(w.pass.size() * (kLayeredPasses - 1));
  const double plain_pps = per(timed_packets, layered.plain_s);
  const double traced_pps = per(timed_packets, layered.traced_s);
  const double codec = static_cast<double>(c.codec_records);

  r.metrics = {
      {"pisa.extract_ns_per_pkt", per(self_ns("pisa.extract"), pkts), "ns"},
      {"pisa.switch_ns_per_pkt", per(self_ns("pisa.switch"), pkts), "ns"},
      {"pisa.pipelines_ns_per_pkt", per(pipelines_ns, pkts), "ns"},
      {"pisa.records_per_pkt", per(records, pkts), "count"},
      {"pisa.overflow_records_per_window", per(static_cast<double>(c.overflow_records), wins),
       "count"},
      {"pisa.reset_us_per_window", per(self_ns("pisa.reset"), wins) / 1e3, "us"},
      {"runtime.sp_deliver_ns_per_record",
       per(total_ns("runtime.sp_deliver") - self_ns("runtime.sp_deliver"), records), "ns"},
      {"runtime.sp_raw_ns_per_pkt", per(total_ns("runtime.sp_raw"), pkts), "ns"},
      {"runtime.poll_us_per_window", per(self_ns("runtime.poll"), wins) / 1e3, "us"},
      {"runtime.close_levels_us_per_window", per(self_ns("runtime.close_levels"), wins) / 1e3,
       "us"},
      {"stream.ingest_ns_per_tuple", per(stream_ns, stream_tuples), "ns"},
      {"stream.tuples_in_per_window", per(static_cast<double>(c.tuples_in), wins), "count"},
      {"stream.tuples_out_per_window", per(static_cast<double>(c.tuples_out), wins), "count"},
      {"state.entries_per_window", per(static_cast<double>(c.state_entries), wins), "count"},
      {"state.bytes", per(static_cast<double>(c.state_bytes), wins), "B"},
      {"report.encode_ns_per_record", per(total_ns("instrument.report.encode"), codec), "ns"},
      {"report.decode_ns_per_record", per(total_ns("instrument.report.decode"), codec), "ns"},
      {"report.bytes_per_record", per(static_cast<double>(c.codec_bytes), codec), "B"},
      {"trace.overhead_pct", 100.0 * (1.0 - per(traced_pps, plain_pps)), "%"},
  };

  for (const auto& tt : totals) {
    std::printf("span %s %-48s calls %10" PRIu64 "  total_ms %12.3f  self_ms %12.3f\n",
                label.c_str(), tt.name.c_str(), tt.calls, static_cast<double>(tt.total_ns) / 1e6,
                static_cast<double>(tt.self_ns) / 1e6);
  }
  std::printf("%s: traced layered pps %.0f, untraced %.0f\n", label.c_str(), traced_pps,
              plain_pps);
  const std::string trace_path =
      a.scratch + "/trace-" + label + "-" + std::to_string(a.seed) + ".json";
  if (std::ofstream f(trace_path); f) {
    f << spans.chrome_json(kMaxTraceEvents);
    std::printf("perfetto trace (first %zu spans): %s\n",
                std::min(kMaxTraceEvents, spans.spans().size()), trace_path.c_str());
  }
  return r;
}

// The rows of `from` named in `names`, renamed with `prefix`.
std::vector<Metric> pick(const std::vector<Metric>& from, std::string_view prefix,
                         std::initializer_list<std::string_view> names) {
  std::vector<Metric> out;
  for (const std::string_view name : names) {
    const auto it = std::find_if(from.begin(), from.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == from.end()) throw std::logic_error("no layer metric " + std::string(name));
    out.push_back({std::string(prefix) + it->name, it->value, it->unit});
  }
  return out;
}

int run_traced(const Args& a, const Workload& w) {
  std::vector<std::string> problems;

  // Set-up split: planning, then compiling the switch program once.
  std::uint64_t t0 = now_ns();
  const rt::EngineBuilder::PlannedSetup planned = plan_only(w);
  const double plan_s = secs_since(t0);
  const sonata::planner::Plan& plan = planned.plan;
  t0 = now_ns();
  { const rt::PipelineBuild build = rt::build_pipelines(plan, {}); }
  const double compile_s = secs_since(t0);

  // The workload's own driver; on the engines obs is on, so
  // WindowStats::phases fill in.
  Tally t;
  std::vector<rt::WindowStats> driver_windows;
  double ingest_ns = 0.0;
  rt::PhaseBreakdown phases;
  std::uint64_t phase_packets = 0;
  double collector_cpu_ns = 0.0, node_cpu_ns = 0.0, records_in = 0.0, node_packets = 0.0;
  double tx_bytes = 0.0, tx_frames = 0.0, barrier_ns = 0.0, barrier_waits = 0.0;
  if (w.spec->kind == Kind::kDistShm) {
    const std::vector<Packet> trace = looped(w, kDriverPasses);
    DistSession session(plan, *w.spec, ring_prefix(a, 0));
    const auto out = session.run(trace, [&](std::size_t, const rt::WindowStats& ws) {
      driver_windows.push_back(ws);
    });
    if (!out.error.empty()) throw std::runtime_error("distributed session: " + out.error);
    const auto& cs = session.collector().stats();
    collector_cpu_ns = static_cast<double>(out.collector_cpu_ns);
    records_in = static_cast<double>(cs.records + cs.raw_tuples + cs.partial_entries);
    for (std::size_t n = 0; n < session.nodes().size(); ++n) {
      node_cpu_ns += static_cast<double>(out.node_cpu_ns[n]);
      node_packets += static_cast<double>(session.nodes()[n]->stats().packets);
      tx_bytes += static_cast<double>(session.nodes()[n]->transport_counters().tx_bytes);
      tx_frames += static_cast<double>(session.nodes()[n]->transport_counters().tx_frames);
      const TimedTransport& tt = *session.transports()[n];
      for (std::size_t i = 0; i < tt.ack_ns.size(); ++i) {
        barrier_ns += static_cast<double>(tt.ack_ns[i] - tt.end_ns[i]);
        barrier_waits += 1.0;
      }
    }
  } else {
    sonata::obs::set_enabled(true);
    auto engine = w.spec->workers > 0 || w.spec->switches > 1
                      ? std::unique_ptr<rt::TelemetryEngine>(std::make_unique<rt::Fleet>(
                            plan, w.spec->switches, w.spec->workers, kBatch))
                      : std::make_unique<rt::Runtime>(plan, kBatch);
    for (std::size_t p = 0; p < kDriverPasses; ++p) {
      engine_pass(*engine, w,
                  [&](std::size_t, rt::WindowStats& ws, std::uint64_t, std::uint64_t,
                      std::uint64_t ingest) {
                    if (p > 0) {
                      ingest_ns += static_cast<double>(ingest);
                      add_phases(phases, ws.phases);
                      phase_packets += ws.packets;
                    }
                    driver_windows.push_back(std::move(ws));
                  });
    }
    sonata::obs::set_enabled(false);
  }
  if (driver_windows.size() != kDriverPasses * kPassWindows) {
    problems.push_back("driver closed too few windows");
  }
  for (std::size_t i = kPassWindows; i < driver_windows.size(); ++i) {
    t.check(w, driver_windows[i], i % kPassWindows);
  }
  for (std::size_t p = 1; p < kDriverPasses; ++p) {
    t.pass_digests.push_back(pass_digest(driver_windows, p));
  }

  // Serial replay of the same plan: the multi-shard drivers must match it.
  if (w.spec->switches > 1) {
    rt::Fleet serial(plan, w.spec->switches, 0, kBatch);
    std::vector<rt::WindowStats> ref;
    for (std::size_t p = 0; p < kDriverPasses; ++p) {
      engine_pass(serial, w,
                  [&](std::size_t, rt::WindowStats& ws, std::uint64_t, std::uint64_t,
                      std::uint64_t) { ref.push_back(std::move(ws)); });
    }
    for (std::size_t p = 1; p < kDriverPasses; ++p) {
      if (pass_digest(ref, p) != t.pass_digests[p - 1]) {
        problems.push_back("driver digest differs from the serial replay in pass " +
                           std::to_string(p));
      }
    }
  }

  // The single-switch loop on the workload's own plan.
  const LayerReport own = layer_report(a, plan, w, w.spec->name, nullptr, problems);

  // The raw mirror, and the stream executors and keyed state at full load,
  // work only under an All-SP plan: replay the All-SP workload's trace
  // through Runtime and the layered loop too. Its Runtime windows are
  // checked against its own ground truth.
  const Workload allsp = make_workload(allsp_spec(), a.seed);
  const rt::EngineBuilder::PlannedSetup allsp_planned = plan_only(allsp);
  Tally allsp_t;
  const LayerReport sp = layer_report(a, allsp_planned.plan, allsp, allsp_spec().name, &allsp_t,
                                      problems);

  double driver_tuples = 0.0;
  for (std::size_t i = kPassWindows; i < driver_windows.size(); ++i) {
    driver_tuples += static_cast<double>(driver_windows[i].tuples_to_sp);
  }
  const double driver_windows_timed = static_cast<double>(driver_windows.size() - kPassWindows);
  const double phase_pkts = static_cast<double>(phase_packets);
  const double all_windows = static_cast<double>(driver_windows.size());

  std::vector<Metric> metrics;
  for (const Metric& m : own.metrics) {
    // Sonata plans mirror no raw packets; the All-SP row below measures it.
    if (m.name != "runtime.sp_raw_ns_per_pkt") metrics.push_back(m);
  }
  const std::vector<Metric> driver_rows = {
      {"engine.ingest_ns_per_pkt", per(ingest_ns, phase_pkts), "ns"},
      {"phase.ingest_ns_per_pkt", per(static_cast<double>(phases.ingest_nanos), phase_pkts), "ns"},
      {"phase.compute_ns_per_pkt", per(static_cast<double>(phases.compute_nanos), phase_pkts),
       "ns"},
      {"phase.merge_ns_per_pkt", per(static_cast<double>(phases.merge_nanos), phase_pkts), "ns"},
      {"phase.poll_ns_per_pkt", per(static_cast<double>(phases.poll_nanos), phase_pkts), "ns"},
      {"phase.close_ns_per_pkt", per(static_cast<double>(phases.close_nanos), phase_pkts), "ns"},
      {"transport.bytes_per_window", per(tx_bytes, all_windows), "B"},
      {"transport.frames_per_window", per(tx_frames, all_windows), "count"},
      {"dist.collector_cpu_ns_per_record", per(collector_cpu_ns, records_in), "ns"},
      {"dist.node_cpu_ns_per_pkt", per(node_cpu_ns, node_packets), "ns"},
      {"dist.barrier_wait_us_per_window", per(barrier_ns, barrier_waits) / 1e3, "us"},
      {"planner.plan_s", plan_s, "s"},
      {"pisa.compile_s", compile_s, "s"},
      {"planner.est_tuples_ratio",
       per(per(driver_tuples, driver_windows_timed), static_cast<double>(plan.est_total_tuples)),
       "ratio"},
  };
  metrics.insert(metrics.end(), driver_rows.begin(), driver_rows.end());
  const std::vector<Metric> allsp_rows =
      pick(sp.metrics, "allsp.",
           {"pisa.extract_ns_per_pkt", "runtime.sp_raw_ns_per_pkt",
            "runtime.close_levels_us_per_window", "stream.ingest_ns_per_tuple",
            "stream.tuples_in_per_window", "stream.tuples_out_per_window",
            "state.entries_per_window", "state.bytes", "trace.overhead_pct"});
  metrics.insert(metrics.end(), allsp_rows.begin(), allsp_rows.end());
  metrics.push_back({"allsp.phase.merge_ns_per_pkt",
                     per(static_cast<double>(sp.runtime_phases.merge_nanos),
                         static_cast<double>(sp.runtime_packets)),
                     "ns"});
  metrics.push_back({"allsp.planner.est_tuples_ratio",
                     per(sp.runtime_tuples_per_window,
                         static_cast<double>(allsp_planned.plan.est_total_tuples)),
                     "ratio"});

  for (const Metric& m : own.detail) {
    std::printf("layer %-56s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : sp.detail) {
    std::printf("layer allsp.%-50s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& why : problems) std::printf("failed %s\n", why.c_str());
  print_context(a, w, t);
  for (const auto& f : allsp_t.failures) std::printf("failed %s: %s\n", allsp_spec().name, f.c_str());
  const bool correct = problems.empty() && t.failed == 0 && t.digests_agree() &&
                       allsp_t.failed == 0 && allsp_t.digests_agree();
  print_result(correct, t.windows + allsp_t.windows, t.failed + allsp_t.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const Spec& spec = *find_spec(args.workload);
    const Workload w = make_workload(spec, args.seed);
    if (args.trace) return run_traced(args, w);
    return spec.kind == Kind::kDistShm ? run_e2e_dist(args, w) : run_e2e_engine(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sonata_perfbench: %s\n", e.what());
    return 1;
  }
}
