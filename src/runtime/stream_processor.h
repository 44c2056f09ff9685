// The stream-processor side of the runtime, shared by every driver.
//
// Sonata's control plane is the same whether one switch or a fleet feeds
// it: per-(query, level) stream executors, the per-level source remapping,
// mirrored-record routing + accounting (the emitter), end-of-window
// register polls, and the coarse-to-fine close that installs each level's
// winner keys into the next level's dynamic filter tables. `Runtime` (one
// switch) and `Fleet` (many switches) used to duplicate all of it; the
// StreamProcessor is now the single source of truth, and the drivers only
// own their data planes and the window loop.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/tracing.h"
#include "pisa/switch.h"
#include "planner/planner.h"
#include "runtime/window_merge.h"
#include "stream/executor.h"

namespace sonata::runtime {

// The emitter (paper §5): the accounting boundary between data plane and
// stream processor. Counts every mirrored record per query. Stats live in
// a dense vector in plan order — record() runs once per mirrored record,
// so the per-record cost is one table-free index lookup, not a tree walk.
class Emitter {
 public:
  struct PerQuery {
    std::uint64_t tuples = 0;
    std::uint64_t overflows = 0;
  };

  // Dense registration in plan order; must precede record() for the qid.
  void register_query(query::QueryId qid);

  void record(const pisa::EmitRecord& rec);

  // (qid, stats) pairs in plan order.
  [[nodiscard]] const std::vector<std::pair<query::QueryId, PerQuery>>& per_query()
      const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint64_t total_tuples() const noexcept { return total_; }

 private:
  static constexpr std::uint32_t kUnregistered = static_cast<std::uint32_t>(-1);

  std::vector<std::pair<query::QueryId, PerQuery>> stats_;  // dense, plan order
  std::vector<std::uint32_t> qid_to_index_;                 // qid -> dense index
  std::uint64_t total_ = 0;
};

struct QueryResult {
  query::QueryId qid = 0;
  std::string name;
  std::vector<query::Tuple> outputs;  // finest-level results this window
};

// Winner keys installed into next-level dynamic filters at a window close,
// held densely in plan order (one slot per planned query; queries without
// a refinement chain keep an empty key list). Replaces the former
// std::map<QueryId, vector<Tuple>>: per-window control paths index by
// dense query id instead of walking a node-based tree.
struct QueryWinners {
  query::QueryId qid = 0;
  std::vector<query::Tuple> keys;

  friend bool operator==(const QueryWinners&, const QueryWinners&) = default;
};

struct WinnerTable {
  std::vector<QueryWinners> per_query;  // dense, plan order

  // Keys installed for `qid` this window; nullptr when none were.
  [[nodiscard]] const std::vector<query::Tuple>* find(query::QueryId qid) const noexcept {
    for (const auto& w : per_query) {
      if (w.qid == qid && !w.keys.empty()) return &w.keys;
    }
    return nullptr;
  }

  friend bool operator==(const WinnerTable&, const WinnerTable&) = default;
};

// Per-window phase-time breakdown, fed by the drivers' obs::PhaseAccum.
// Kept in integer nanoseconds so the five components sum to total_nanos
// EXACTLY (the accumulator adds both together); the millis accessors are
// for display. In a threaded fleet the phases are busy time summed across
// workers and driver, so total_nanos can exceed the window's wall time.
struct PhaseBreakdown {
  std::uint64_t ingest_nanos = 0;   // packet parse / tuple materialize
  std::uint64_t compute_nanos = 0;  // switch pipeline processing
  std::uint64_t merge_nanos = 0;    // barrier drain + record merge into SP
  std::uint64_t poll_nanos = 0;     // end-of-window register polls
  std::uint64_t close_nanos = 0;    // close_levels + refinement install + resets
  std::uint64_t total_nanos = 0;    // exact sum of the five components

  [[nodiscard]] double ingest_millis() const noexcept { return static_cast<double>(ingest_nanos) / 1e6; }
  [[nodiscard]] double compute_millis() const noexcept { return static_cast<double>(compute_nanos) / 1e6; }
  [[nodiscard]] double merge_millis() const noexcept { return static_cast<double>(merge_nanos) / 1e6; }
  [[nodiscard]] double poll_millis() const noexcept { return static_cast<double>(poll_nanos) / 1e6; }
  [[nodiscard]] double close_millis() const noexcept { return static_cast<double>(close_nanos) / 1e6; }
  [[nodiscard]] double total_millis() const noexcept { return static_cast<double>(total_nanos) / 1e6; }
};

// Snapshot a driver's per-window phase accumulator into a breakdown.
[[nodiscard]] PhaseBreakdown to_breakdown(const obs::PhaseAccum& accum) noexcept;

struct WindowStats {
  std::uint64_t window_index = 0;
  std::uint64_t packets = 0;
  std::uint64_t tuples_to_sp = 0;       // mirrored tuples + raw mirror
  std::uint64_t raw_mirror_packets = 0; // subset of the above
  std::uint64_t overflow_records = 0;
  double control_update_millis = 0.0;   // driver latency at window end
  std::uint64_t dropped_packets = 0;     // closed-loop mitigation drops
  PhaseBreakdown phases;                 // zeroed unless obs/tracing enabled
  std::vector<QueryResult> results;
  // Winner keys installed into next-level dynamic filters at the end of
  // this window, per query (all coarse levels merged), dense in plan order.
  WinnerTable winners;

  // -- graceful degradation (DESIGN.md "Fault model & degradation") -----
  // Bit i is set when switch i's full contribution made this window's
  // merge; every driver refuses more than 64 switches (runtime/limits.h),
  // so each switch has its bit. A healthy window has every bit set and partial == false; a
  // window that lost a quarantined shard reports partial == true, the
  // missing switch's bit cleared, and its packets in late_packets.
  std::uint64_t contribution_mask = 0;
  bool partial = false;
  std::uint64_t late_packets = 0;  // routed to a quarantined shard, lost from merge
  std::uint64_t shed_packets = 0;  // dropped at ingest under sustained backpressure
  bool plan_swapped = false;       // a new plan was installed after this window
                                   // (auto-replan or control-plane swap)
  std::uint64_t plan_version = 0;  // control-plane version of the plan that
                                   // processed this window (0 = static plan)
  fault::FaultAccount faults;      // faults injected during this window (all zero
                                   // when no injector is configured)
};

class StreamProcessor {
 public:
  // `plan` must outlive the StreamProcessor (drivers own the plan copy).
  explicit StreamProcessor(const planner::Plan& plan);

  StreamProcessor(const StreamProcessor&) = delete;
  StreamProcessor& operator=(const StreamProcessor&) = delete;

  // Route one mirrored record into the right executor (key reports only
  // notify the SP which registers to poll; they count but do not ingest).
  // Returns false — and ingests nothing — when the record does not route:
  // unknown (qid, level) or out-of-range source index. Plan-driven callers
  // always route; the faulty wire (runtime::WireChannel) can hand the SP a
  // corrupted-but-decodable header, and this boundary check is what keeps
  // that from indexing into another query's executors.
  bool deliver(const pisa::EmitRecord& rec);

  // Move-in variant: the record's tuple is moved into the executor. This
  // is what the batched merge path uses — shard emit arenas hand their
  // tuples over without a copy.
  bool deliver(pisa::EmitRecord&& rec);

  // Batched delivery in record order; every record's tuple is moved.
  // Callers must treat `recs` as consumed.
  void deliver_batch(std::span<pisa::EmitRecord> recs);

  // Feed the shared raw mirror: `source` enters every SP-kept pipeline
  // (partition == 0) whose source executes at its level.
  void deliver_raw(const query::Tuple& source);

  // Batched raw mirror: tuples are copied to every active feed except the
  // last, which takes them by move. Callers must treat `sources` as
  // consumed.
  void deliver_raw_batch(std::span<query::Tuple> sources);

  // True when the plan mirrors raw packets and some pipeline consumes them.
  [[nodiscard]] bool wants_raw_mirror() const noexcept {
    return plan_->raw_mirror && !raw_feeds_.empty();
  }

  // Static form of wants_raw_mirror() for processes that deploy the data
  // plane without building a StreamProcessor (the switch-node role of the
  // distributed deployment must mirror raw tuples iff the collector's SP
  // will consume them).
  [[nodiscard]] static bool plan_wants_raw_mirror(const planner::Plan& plan) noexcept;

  // Observe every dynamic-filter install close_levels performs: one call
  // per (filter table, winner set) in install order, including empty
  // winner sets (which clear the table). The distributed collector
  // forwards these to the switch-node processes, which replay them on
  // their local switches before the next window — the same installs
  // `switches` receives in-process.
  using WinnerSink =
      std::function<void(const std::string& table, std::span<const query::Tuple> keys)>;
  void set_winner_sink(WinnerSink sink) { winner_sink_ = std::move(sink); }

  // End-of-window register poll for one switch's stateful tails (control
  // channel), through the same WindowMerge the multi-switch drivers use;
  // polled aggregates merge at the shared reduce.
  void poll_switch(const pisa::Switch& sw);

  // Feed one pipeline's merged polls (`merged`, the WindowMerge's last
  // fold) into its executor's reduce at pipe.poll_entry_op(). `logical` is
  // the pre-merge entry count, which is what tuples_in counts, so SP
  // ingress metrics do not depend on how many shards the merge folded.
  void ingest_merged(const pisa::CompiledSwitchQuery& pipe, std::uint64_t logical,
                     WindowMerge& merged);

  // Close every level coarse-to-fine: finest outputs land in
  // `window.results`; coarse winners install into the next level's dynamic
  // filter tables on the SP side and on every switch in `switches` (they
  // take effect for the next window).
  void close_levels(WindowStats& window, std::span<pisa::Switch* const> switches);

  [[nodiscard]] stream::QueryExecutor& executor(query::QueryId qid, int level);
  // Executor-side source index for an original source at a level (-1 when
  // that source does not execute at the level — raw sources at coarse
  // levels; see PlannedQuery::source_remap).
  [[nodiscard]] int remap_source(query::QueryId qid, int level, int source_index) const;

  // The planned query behind `qid` (nullptr when unknown).
  [[nodiscard]] const planner::PlannedQuery* planned(query::QueryId qid) const noexcept;

  [[nodiscard]] const Emitter& emitter() const noexcept { return emitter_; }

  // Set the delivery timestamp for the merge pass that follows: deliver()
  // notes (now - rec.ingest_ns) for every stamped record into the owning
  // level's latency tally. Drivers call this once per merge/flush, so the
  // per-record cost is two plain adds — no clock read, no registry access.
  // Pass 0 to disable (default).
  void begin_delivery(std::uint64_t now_ns) noexcept { delivery_now_ = now_ns; }

 private:
  // Per-(query, level) single-writer end-to-end latency tally, published to
  // a registry histogram once per window at close_levels. Bucket bounds are
  // shared with the registry histogram: 1us..1s decades.
  struct LatencyTally {
    static constexpr std::uint64_t kBounds[] = {1'000,      10'000,      100'000,    1'000'000,
                                                10'000'000, 100'000'000, 1'000'000'000};
    static constexpr std::size_t kBuckets = std::size(kBounds) + 1;
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t sum = 0;
    std::uint64_t n = 0;

    void note(std::uint64_t latency_ns) noexcept {
      std::size_t b = 0;
      while (b < std::size(kBounds) && latency_ns > kBounds[b]) ++b;
      ++counts[b];
      sum += latency_ns;
      ++n;
    }
    void reset() noexcept {
      for (std::uint64_t& c : counts) c = 0;
      sum = 0;
      n = 0;
    }
  };
  struct LevelExec {
    int level = planner::kFinestIpLevel;
    std::unique_ptr<stream::QueryExecutor> exec;
    // Single-writer per-window tally (the SP is driven by one thread);
    // published to the registry at close_levels.
    std::uint64_t tuples_in = 0;
    obs::Counter* in_counter = nullptr;
    obs::Counter* out_counter = nullptr;
    obs::Gauge* state_gauge = nullptr;
    obs::Gauge* state_bytes_gauge = nullptr;
    obs::Gauge* state_error_gauge = nullptr;  // summed eps*weight over sketched ops
    LatencyTally latency;                     // ingest -> delivery, this window
    obs::Histogram* latency_hist = nullptr;
  };
  struct QueryState {
    const planner::PlannedQuery* pq = nullptr;
    std::vector<LevelExec> levels;  // chain order (coarse -> fine)
    obs::Counter* winners_counter = nullptr;
  };

  // The LevelExec behind executor(qid, level); nullptr on unknown pairs
  // (only the wire delivery path can present one — see deliver()).
  [[nodiscard]] LevelExec* level_exec(query::QueryId qid, int level) noexcept;
  // Pipelines kept at the stream processor (partition == 0), needing the
  // raw mirror: (qid, level, source).
  struct RawFeed {
    query::QueryId qid;
    int level;
    int source_index;
  };

  const planner::Plan* plan_;
  std::vector<QueryState> queries_;
  std::vector<RawFeed> raw_feeds_;
  Emitter emitter_;
  WindowMerge merge_;                      // poll_switch's merge
  std::vector<pisa::PolledBlock> polls_;   // poll_switch's blocks, per pipeline
  std::uint64_t delivery_now_ = 0;  // see begin_delivery()
  WinnerSink winner_sink_;          // see set_winner_sink()
};

}  // namespace sonata::runtime
