// The benchmark's seeded workloads: traffic, queries, driver topology and
// the ground truth every window is checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "planner/planner.h"
#include "queries/catalog.h"
#include "runtime/stream_processor.h"

namespace perfbench {

enum class Kind { kSonataFleet, kDistShm, kAllSp };

// Static description of one workload.
struct Spec {
  Kind kind = Kind::kSonataFleet;
  const char* name = "";
  sonata::planner::PlanMode mode = sonata::planner::PlanMode::kSonata;
  std::size_t switches = 1;  // data-plane shards
  std::size_t workers = 0;   // Fleet worker threads (0 = serial driver)
  std::size_t nodes = 0;     // switch-node threads (dist-shm only)
  bool high_cardinality = false;  // add the wide-pool background (All-SP only)
  // Busy threads the workload runs: the driver plus its workers, or the
  // collector plus the switch nodes.
  [[nodiscard]] std::size_t busy_threads() const noexcept {
    return nodes > 0 ? nodes + 1 : workers + 1;
  }
};

// Looks a timed workload (sonata-fleet, dist-shm) up by name; nullptr when
// unknown.
[[nodiscard]] const Spec* find_spec(std::string_view name);

// The All-SP plan on the single-switch Runtime over a trace with extra
// background cardinality. It is not a timed workload: its end-to-end
// figures swing with the memory load of other tenants on a shared host.
// Every traced run replays it to measure the layers that work only under
// an All-SP plan: the raw mirror, and the stream executors and keyed state
// at full load.
[[nodiscard]] const Spec& allsp_spec();

// Data-path handoff granularity of every driver.
inline constexpr std::size_t kBatch = 256;

inline constexpr sonata::util::Nanos kWindow = sonata::util::kNanosPerSec;
// One pass of the evaluation trace: 24 one-second windows. Attacks run from
// t = 2 s to t = 22 s; the refined queries need one window to install their
// coarse winners, so by default windows 3..21 of every pass are checked.
inline constexpr std::size_t kPassWindows = 24;

// One ground-truth detection: query `qid` must report `host` in output
// column 0 of windows first..last of every pass.
struct Truth {
  sonata::query::QueryId qid = 0;
  std::uint32_t host = 0;
  const char* what = "";
  std::size_t first = 3;
  std::size_t last = 21;
};

struct Workload {
  const Spec* spec = nullptr;
  std::vector<sonata::net::Packet> pass;  // one pass, timestamps in [0, 24 s)
  std::vector<std::size_t> bounds;        // window w = pass[bounds[w], bounds[w+1])
  std::span<const sonata::net::Packet> training;  // planner training traffic
  sonata::queries::Thresholds thresholds;
  std::vector<Truth> truth;

  [[nodiscard]] std::span<const sonata::net::Packet> window(std::size_t w) const {
    return std::span(pass).subspan(bounds[w], bounds[w + 1] - bounds[w]);
  }
  [[nodiscard]] std::vector<sonata::query::Query> queries() const;
  [[nodiscard]] sonata::planner::PlannerConfig planner_config() const;
};

// Generates the workload's traffic from `seed` (same seed, same packets).
[[nodiscard]] Workload make_workload(const Spec& spec, std::uint64_t seed);

// `passes` copies of the pass back to back, each shifted by 24 s, for the
// drivers that replay a trace by timestamp (SwitchNode::run).
[[nodiscard]] std::vector<sonata::net::Packet> looped(const Workload& w, std::size_t passes);

// Empty when `ws` (window `window_in_pass` of a pass) is healthy and reports
// every ground-truth detection it must; otherwise what is wrong with it.
[[nodiscard]] std::string check_window(const Workload& w, const sonata::runtime::WindowStats& ws,
                                       std::size_t window_in_pass);

}  // namespace perfbench
