#include "workload.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common.h"
#include "trace/trace.h"
#include "util/ip.h"

namespace perfbench {

namespace sq = sonata::queries;
using sonata::net::Packet;

namespace {

using sonata::planner::PlanMode;

const std::vector<Spec>& timed_specs() {
  static const std::vector<Spec> specs = {
      {.kind = Kind::kSonataFleet, .name = "sonata-fleet", .mode = PlanMode::kSonata,
       .switches = 4, .workers = 2},
      {.kind = Kind::kDistShm, .name = "dist-shm", .mode = PlanMode::kSonata, .switches = 4,
       .nodes = 2},
  };
  return specs;
}

}  // namespace

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : timed_specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

const Spec& allsp_spec() {
  static const Spec spec{.kind = Kind::kAllSp, .name = "allsp-serial", .mode = PlanMode::kAllSP,
                         .switches = 1, .workers = 0, .high_cardinality = true};
  return spec;
}

std::vector<sonata::query::Query> Workload::queries() const {
  return sq::evaluation_queries(thresholds, kWindow);
}

sonata::planner::PlannerConfig Workload::planner_config() const {
  sonata::planner::PlannerConfig cfg;
  cfg.mode = spec->mode;
  cfg.window = kWindow;
  // A tenth of the default branch-and-bound budget: the Sonata plan takes
  // about 4 s instead of 16 s, so set-up can be repeated within one run.
  // For seeds 1-30 and 2018 it finds the same plan, with the same estimated
  // N, as the default budget.
  cfg.search_node_cap = 10000;
  return cfg;
}

Workload make_workload(const Spec& spec, std::uint64_t seed) {
  Workload w;
  w.spec = &spec;

  sonata::bench::Options opts;
  opts.seed = seed;
  sonata::bench::Workload eval = sonata::bench::make_eval_workload(opts);
  std::vector<Packet> trace = std::move(eval.trace);

  if (spec.high_cardinality) {
    // A second background over wide, flat host pools adds distinct keys:
    // per-window keyed state at the stream processor grows from about 13 MB
    // to about 14 MB (7x a 2 MiB L2), while the attack mix, and so every
    // ground-truth detection, stays the same.
    sonata::trace::BackgroundConfig wide;
    wide.duration_sec = 24.0;
    wide.flows_per_sec = 400.0;
    wide.client_pool = 100000;
    wide.server_pool = 25000;
    wide.zipf_s = 0.6;
    std::vector<Packet> extra =
        sonata::trace::TraceBuilder(seed ^ 0x5eedca4d1a11ULL).background(wide).build();
    std::vector<Packet> merged;
    merged.reserve(trace.size() + extra.size());
    std::merge(trace.begin(), trace.end(), extra.begin(), extra.end(),
               std::back_inserter(merged),
               [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
    trace = std::move(merged);
  }

  const auto pass_end = static_cast<sonata::util::Nanos>(kPassWindows) * kWindow;
  std::erase_if(trace, [&](const Packet& p) { return p.ts >= pass_end; });
  w.pass = std::move(trace);

  w.bounds.assign(kPassWindows + 1, w.pass.size());
  std::size_t i = 0;
  for (std::size_t win = 0; win < kPassWindows; ++win) {
    w.bounds[win] = i;
    while (i < w.pass.size() && sonata::util::window_index(w.pass[i].ts, kWindow) == win) ++i;
  }
  w.training = std::span<const Packet>(w.pass).subspan(w.bounds[2], w.bounds[4] - w.bounds[2]);

  // The evaluation thresholds are per three-second window; these windows
  // last one second. The slowloris ratio is a rate ratio and stays.
  w.thresholds = eval.thresholds;
  auto& th = w.thresholds;
  for (std::uint64_t* t : {&th.newly_opened, &th.ssh_brute, &th.superspreader, &th.port_scan,
                           &th.ddos, &th.syn_flood, &th.incomplete_flows, &th.slowloris_bytes}) {
    *t /= 3;
  }

  w.truth = {
      {1, eval.syn_victim, "syn_victim"},
      {2, eval.ssh_victim, "ssh_victim"},
      {3, eval.spreader, "spreader"},
      {4, eval.scanner, "scanner"},
      {5, eval.ddos_victim, "ddos_victim"},
      {6, eval.syn_victim, "syn_victim"},
      {7, eval.incomplete_victim, "incomplete_victim"},
      // Slowloris opens its connections during t = 2..12 s and then only
      // trickles, so its byte threshold is crossed in those windows only.
      {8, eval.slowloris_victim, "slowloris_victim", 3, 11},
  };
  return w;
}

std::vector<Packet> looped(const Workload& w, std::size_t passes) {
  std::vector<Packet> out;
  out.reserve(w.pass.size() * passes);
  for (std::size_t p = 0; p < passes; ++p) {
    const auto shift = static_cast<sonata::util::Nanos>(p * kPassWindows) * kWindow;
    for (Packet pkt : w.pass) {
      pkt.ts += shift;
      out.push_back(std::move(pkt));
    }
  }
  return out;
}

std::string check_window(const Workload& w, const sonata::runtime::WindowStats& ws,
                         std::size_t window_in_pass) {
  if (ws.partial) return "partial window";
  if (ws.shed_packets != 0) return "shed packets";
  if (ws.late_packets != 0) return "late packets";
  const std::uint64_t expected = w.bounds[window_in_pass + 1] - w.bounds[window_in_pass];
  if (ws.packets != expected) {
    return "window holds " + std::to_string(ws.packets) + " packets, expected " +
           std::to_string(expected);
  }
  for (const Truth& t : w.truth) {
    if (window_in_pass < t.first || window_in_pass > t.last) continue;
    bool found = false;
    for (const auto& r : ws.results) {
      if (r.qid != t.qid) continue;
      for (const auto& out : r.outputs) {
        if (out.size() > 0 && out.at(0).is_uint() && out.at(0).as_uint() == t.host) found = true;
      }
    }
    if (!found) {
      return std::string("query ") + std::to_string(t.qid) + " missed " + t.what + " " +
             sonata::util::ipv4_to_string(t.host);
    }
  }
  return "";
}

}  // namespace perfbench
