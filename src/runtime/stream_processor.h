// The stream-processor side of the runtime, shared by every driver.
//
// Sonata's control plane is the same whether one switch or a fleet feeds
// it: per-(query, level) stream executors, the per-level source remapping,
// mirrored-record routing + accounting (the emitter), end-of-window
// register polls, and the coarse-to-fine close that installs each level's
// winner keys into the next level's dynamic filter tables. The drivers
// (Fleet, of which Runtime is the one-shard case, and the distributed
// Collector) only own their data planes and the window loop.
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
#include "util/task_pool.h"
#include "runtime/window_merge.h"
#include "stream/executor.h"

namespace sonata::runtime {

// The emitter (paper §5): the accounting boundary between data plane and
// stream processor. Counts every mirrored record per query, densely in
// plan order. Each query's tally has one writer (its close task), so the
// total is derived from the tallies, not kept as a shared counter.
class Emitter {
 public:
  struct PerQuery {
    std::uint64_t tuples = 0;
    std::uint64_t overflows = 0;
  };

  // Dense registration in plan order: the query's index into per_query().
  void register_query(query::QueryId qid) { stats_.emplace_back(qid, PerQuery{}); }

  // One record of the query at dense `index`.
  void record(std::size_t index, pisa::EmitRecord::Kind kind) noexcept {
    auto& s = stats_[index].second;
    ++s.tuples;
    if (kind == pisa::EmitRecord::Kind::kOverflow) ++s.overflows;
  }
  // Records whose qid no planned query has (a corrupted wire header).
  void record_unplanned(std::uint64_t n) noexcept { unplanned_ += n; }

  // (qid, stats) pairs in plan order.
  [[nodiscard]] const std::vector<std::pair<query::QueryId, PerQuery>>& per_query()
      const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint64_t total_tuples() const noexcept;

 private:
  std::vector<std::pair<query::QueryId, PerQuery>> stats_;  // dense, plan order
  std::uint64_t unplanned_ = 0;
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
// for display. In a threaded fleet ingest/compute are busy time summed
// across workers and driver, so total_nanos can exceed the window's wall
// time. merge/poll/close are the driver's wall time of each blocking step
// of the close: the time worker threads spend polling or running close
// tasks is not added to them.
struct PhaseBreakdown {
  std::uint64_t ingest_nanos = 0;   // packet parse / tuple materialize
  std::uint64_t compute_nanos = 0;  // switch pipeline processing
  std::uint64_t merge_nanos = 0;    // barrier drain (+ the faulty wire's pass)
  std::uint64_t poll_nanos = 0;     // end-of-window register polls
  std::uint64_t close_nanos = 0;    // per-query close tasks + install + resets
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

  // -- single-thread entry points ------------------------------------------
  // deliver, deliver_batch, deliver_raw_batch, poll_switch and close_levels
  // feed the SP as records are emitted, then close it. No driver uses them:
  // their callers are perfbench's LayeredRuntime (the benchmark's
  // layer-by-layer re-composition of the single-switch loop),
  // bench/micro_components, and the serial oracles of
  // tests/parallel_close_test and tests/window_merge_test.

  // Route one mirrored record into the right executor (key reports only
  // notify the SP which registers to poll; they count but do not ingest).
  // Returns false — and ingests nothing — when the record does not route:
  // unknown (qid, level) or out-of-range source index. Plan-driven callers
  // always route; a faulty wire can hand the SP a corrupted-but-decodable
  // header, and this boundary check is what keeps that from indexing into
  // another query's executors. The record's tuple is moved into the
  // executor.
  bool deliver(pisa::EmitRecord&& rec);

  // Batched delivery in record order; every record's tuple is moved.
  // Callers must treat `recs` as consumed.
  void deliver_batch(std::span<pisa::EmitRecord> recs);

  // Feed the shared raw mirror: `sources` enter every SP-kept pipeline
  // (partition == 0) whose source executes at its level. Tuples are copied
  // to every such feed except the last, which takes them by move. Callers
  // must treat `sources` as consumed.
  void deliver_raw_batch(std::span<query::Tuple> sources);

  // True when the plan mirrors raw packets and some pipeline consumes them.
  [[nodiscard]] bool wants_raw_mirror() const noexcept {
    return plan_->raw_mirror && raw_feeds_ != 0;
  }

  // Static form of wants_raw_mirror() for processes that deploy the data
  // plane without building a StreamProcessor (the switch-node role of the
  // distributed deployment must mirror raw tuples iff the collector's SP
  // will consume them).
  [[nodiscard]] static bool plan_wants_raw_mirror(const planner::Plan& plan) noexcept;

  // Observe every dynamic-filter install the close performs: one call per
  // (filter table, winner set) in install order, including empty winner
  // sets (which clear the table). The distributed collector forwards these
  // to the switch-node processes, which replay them on their local
  // switches before the next window — the same installs `switches`
  // receives in-process.
  using WinnerSink =
      std::function<void(const std::string& table, std::span<const query::Tuple> keys)>;
  void set_winner_sink(WinnerSink sink) { winner_sink_ = std::move(sink); }

  // The window close of every driver (DESIGN.md "Parallel window close").
  // One task per planned query delivers its records and raw tuples from
  // `shards` (ascending shard order), folds its pipelines' polls (of the
  // switch program `pipelines`) and ends its levels coarse to fine. A
  // serial epilogue then, in plan order, installs winners on `switches`
  // and the winner sink, fills `window` and emits the journal events.
  // `run` (default: inline) runs the tasks on up to `slots` threads,
  // starting with the query whose task took longest last window; the
  // window is the same for every runner and every order. Returns the
  // records dropped because they route nowhere (not key reports, and of
  // an unknown query, level or source: corrupted but decodable).
  std::uint64_t close_window(WindowStats& window, std::span<const ShardOutput> shards,
                    std::span<const std::unique_ptr<pisa::CompiledSwitchQuery>> pipelines,
                    std::span<pisa::Switch* const> switches, std::size_t slots = 1,
                    const util::TaskRunner& run = {});

  // Single-thread steps of the close, for drivers that deliver as they go:
  // one switch's polls into the reduce; close_window with no shards.
  void poll_switch(const pisa::Switch& sw);
  void close_levels(WindowStats& window, std::span<pisa::Switch* const> switches) {
    close_window(window, {}, {}, switches);
  }

  // The chain whose reduce one pipeline's polls fold into (WindowMerge),
  // after adding `logical`, the pre-merge entry count, to its level's
  // tuples_in (so SP ingress does not depend on the shard count). nullptr
  // when the pipeline's source does not execute at its level.
  stream::ChainExecutor* ingest_merged(const pisa::CompiledSwitchQuery& pipe,
                                       std::uint64_t logical);

  [[nodiscard]] stream::QueryExecutor& executor(query::QueryId qid, int level);
  // Executor-side source index for an original source at a level (-1 when
  // that source does not execute at the level — raw sources at coarse
  // levels; see PlannedQuery::source_remap — or (qid, level) is unknown).
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
    void reset() noexcept { *this = LatencyTally{}; }
  };
  struct LevelExec {
    int level = planner::kFinestIpLevel;
    std::unique_ptr<stream::QueryExecutor> exec;
    std::vector<int> sources;  // route table: source index -> executor's, or -1
    // Single-writer per-window tallies (the query's close task, or the
    // one thread that delivers as it goes); published at the close.
    std::uint64_t tuples_in = 0;
    state::StateUsage usage;  // read before close() clears it (obs only)
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
    std::vector<int> level_index;   // route table: level -> index into levels, or -1
    // Active raw-mirror feeds: (index into levels, executor source).
    std::vector<std::pair<std::size_t, int>> raw_feeds;
    obs::Counter* winners_counter = nullptr;
    obs::Histogram* close_task_hist = nullptr;  // task_ns, once per window
    // The close task's results for the epilogue.
    std::uint64_t taken = 0, overflows = 0;  // records taken; accepted overflows
    std::uint64_t unrouted = 0;              // records taken that route nowhere
    std::vector<query::Tuple> outputs;               // finest level
    std::vector<std::vector<query::Tuple>> winners;  // per coarse level
    // Close-task order keys: the plan estimate (SP tuples plus the register
    // slots its polls fold) and the last close task's duration.
    std::uint64_t estimate = 0;
    std::uint64_t task_ns = 0;
  };
  static constexpr std::uint32_t kNoQuery = static_cast<std::uint32_t>(-1);

  [[nodiscard]] std::uint32_t query_index(query::QueryId qid) const noexcept {
    return qid < query_of_.size() ? query_of_[qid] : kNoQuery;
  }
  // Route table lookups, nullptr / -1 when the record routes nowhere (only
  // the wire delivery path can present one — see deliver()).
  [[nodiscard]] const LevelExec* level_exec(query::QueryId qid, int level) const noexcept;
  [[nodiscard]] static const LevelExec* find_level(const QueryState& qs, int level) noexcept;
  [[nodiscard]] static int source_of(const LevelExec& le, int source_index) noexcept;
  bool deliver_to(std::size_t qi, pisa::EmitRecord&& rec);  // deliver() for query qi
  // Raw tuples into qs's feeds; the last feed moves them when `move_last`.
  void feed_raw(QueryState& qs, std::span<query::Tuple> sources, bool move_last);
  void sort_close_order();
  void close_query(std::size_t qi, std::span<const ShardOutput> shards,
                   std::span<const std::unique_ptr<pisa::CompiledSwitchQuery>> pipelines,
                   WindowMerge& merge);

  const planner::Plan* plan_;
  std::vector<QueryState> queries_;
  std::vector<std::uint32_t> query_of_;  // route table: qid -> index into queries_
  // Queries by last close-task time, longest first; ties (and the first
  // window) by plan estimate, largest first.
  std::vector<std::uint32_t> close_order_;
  std::size_t raw_feeds_ = 0;  // SP-kept pipelines, active or not
  // The one query with raw feeds, whose close task moves the raw tuples
  // (kNoQuery when several share them: all copy).
  std::uint32_t raw_owner_ = kNoQuery;
  Emitter emitter_;
  WindowMerge merge_;                      // poll_switch's merge
  std::vector<pisa::PolledBlock> polls_;   // poll_switch's blocks, per pipeline
  std::vector<WindowMerge> task_merges_;   // close_window's, one per slot
  // close_window's routing: [shard][query] -> that query's record indices;
  // per shard, its records of no planned query that are not key reports.
  std::vector<std::vector<std::vector<std::uint32_t>>> routed_;
  std::vector<std::uint64_t> unrouted_;
  std::uint64_t delivery_now_ = 0;  // see begin_delivery()
  WinnerSink winner_sink_;          // see set_winner_sink()
};

}  // namespace sonata::runtime
