// Executable PISA switch simulator.
//
// A Switch hosts one CompiledSwitchQuery per (query, source, refinement
// level). Each packet is parsed once into a source tuple, then every
// installed pipeline processes it; pipelines that mark the report flag
// cause a mirrored packet — an EmitRecord — on the monitoring port, which
// the emitter turns into stream-processor input (paper Figure 6).
//
// Execution is pipeline-at-a-time (pisa/kernel.h): a batch is gathered
// into a columnar PHV, each pipeline runs over the whole block, and the
// staged records are merged back into packet-then-pipeline order, so the
// sink holds exactly what per-packet processing would have appended.
//
// The driver-facing surface (install / update_filter_entries /
// poll_and_reset) mirrors what Sonata's runtime does to BMV2/Tofino over
// Thrift, including the modelled per-update latency used by the
// dynamic-refinement overhead micro-benchmark (paper §6.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "pisa/compile.h"
#include "pisa/config.h"
#include "pisa/kernel.h"
#include "pisa/layout.h"
#include "pisa/register.h"
#include "query/field.h"
#include "query/query.h"
#include "util/flat_table.h"

namespace sonata::pisa {

// What the switch mirrors to the monitoring port for one packet.
struct EmitRecord {
  enum class Kind : std::uint8_t {
    kStream,     // tuple passed a stateless switch prefix; SP continues at op_index
    kKeyReport,  // first report for a register key (stateful tail); SP polls later
    kOverflow,   // key collided in all d registers; SP takes over at op_index
  };
  Kind kind = Kind::kStream;
  query::QueryId qid = 0;
  int source_index = 0;
  int level = 0;
  std::size_t op_index = 0;  // where the tuple (re-)enters the operator chain
  query::Tuple tuple;
  // Ingest timestamp (obs::now_ns) of the packet/batch that produced this
  // record; 0 when metrics are off. Feeds the per-(query, level) report
  // latency histograms; never consulted by the data path itself, so it has
  // no effect on window results. Kept last: the switch data path
  // aggregate-initializes EmitRecord positionally without this field.
  std::uint64_t ingest_ns = 0;
};

// Caller-owned arena for mirrored records — the batched data path's
// replacement for returning optional<EmitRecord> per packet. Records are
// appended in packet-arrival order; clear() keeps the capacity, so a
// driver that reuses one sink per shard allocates only until the high-water
// mark of a window. The packets_with_records counter feeds the drivers'
// tuple accounting (one mirrored packet per source packet with at least one
// emission, paper §3.1.3).
class EmitSink {
 public:
  template <typename... Args>
  EmitRecord& append(Args&&... args) {
    return records_.emplace_back(std::forward<Args>(args)...);
  }

  // Drop everything but keep the allocation (arena reuse).
  void clear() noexcept {
    records_.clear();
    packets_with_records_ = 0;
  }

  [[nodiscard]] std::span<EmitRecord> records() noexcept { return records_; }
  [[nodiscard]] std::span<const EmitRecord> records() const noexcept {
    return {records_.data(), records_.size()};
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  [[nodiscard]] std::uint64_t packets_with_records() const noexcept {
    return packets_with_records_;
  }
  void note_packet_with_records() noexcept { ++packets_with_records_; }

 private:
  std::vector<EmitRecord> records_;
  std::uint64_t packets_with_records_ = 0;
};

// Records one kernel run staged before the switch merges them into the
// sink: each with the block row of the packet that produced it.
struct EmitStaging {
  std::vector<EmitRecord> records;
  std::vector<std::uint32_t> rows;  // parallel to records

  void clear() noexcept {
    records.clear();
    rows.clear();
  }
};

// Executable form of one partitioned (and possibly refined) sub-query.
class CompiledSwitchQuery {
 public:
  struct Options {
    query::QueryId qid = 0;
    int source_index = 0;
    int level = 32;
    std::size_t partition = 0;
    std::map<std::size_t, RegisterSizing> sizing;  // stateful op index -> n, d
    std::uint64_t hash_seed = 0;  // register hash family seed (0 = default)
  };

  // `node` must stay alive and validated for the lifetime of this object.
  CompiledSwitchQuery(const query::StreamNode& node, Options opts);
  ~CompiledSwitchQuery();

  // Process one source tuple; a mirrored record is appended to `sink` if
  // the report flag is set at the end of the pipeline. Returns whether a
  // record was emitted. A batch of one through run().
  bool process_into(const query::Tuple& source, EmitSink& sink);

  // Convenience wrapper around process_into for single-packet callers.
  [[nodiscard]] std::optional<EmitRecord> process(const query::Tuple& source);

  // The kernel: run this pipeline over the `live` rows (ascending) of one
  // block's PHV, staging each emitted record with its row. A pipeline
  // emits at most one record per row.
  void run(const kernel::Phv& phv, std::span<const std::uint32_t> live, kernel::Scratch& s,
           EmitStaging& out);

  // Source-schema columns run() reads from the PHV.
  [[nodiscard]] std::span<const std::uint32_t> phv_columns() const noexcept { return phv_cols_; }

  // True when the pipeline ends in a register (reduce) the stream
  // processor must poll at the end of each window.
  [[nodiscard]] bool has_stateful_tail() const noexcept { return tail_reduce_ != nullptr; }

  // End-of-window register poll (control channel). Returns ALL stored
  // aggregates, shaped like the tail reduce's *input* tuples (value column
  // carrying the aggregate, unused columns zeroed), so the stream processor
  // ingests them at the reduce itself and merges them with any
  // overflow-corrected partial counts before applying the trailing
  // threshold (paper §3.1.3: the emitter reads the aggregated value for
  // each key in its local store from the data-plane registers, and the SP
  // adjusts results for collisions). The folded threshold still governs
  // which keys generate *report packets* (the N the evaluation counts);
  // polling is control-plane.
  [[nodiscard]] std::vector<query::Tuple> poll_aggregates() const;

  // Raw end-of-window poll for the window merge (runtime/window_merge.h):
  // the stateful tail's keys and aggregates packed into `out` in the
  // registers' deterministic slot order, unshaped. Empties `out` when
  // !has_stateful_tail().
  void poll_block(PolledBlock& out) const;

  // Key kinds of the stateful tail's register, in key order (the layout of
  // poll_block()'s blocks). Requires has_stateful_tail().
  [[nodiscard]] std::span<const query::ValueKind> tail_key_kinds() const;

  // Shape one (key, aggregate) pair exactly like poll_aggregates() shapes
  // each register entry. Requires has_stateful_tail().
  [[nodiscard]] query::Tuple shape_polled(const query::Tuple& key, std::uint64_t value) const;

  // Reduce fn of the stateful tail (kSum when there is none).
  [[nodiscard]] query::ReduceFn tail_reduce_fn() const noexcept {
    return tail_reduce_ != nullptr ? tail_reduce_->fn : query::ReduceFn::kSum;
  }

  // Operator index where polled aggregates enter the stream processor:
  // the tail reduce itself.
  [[nodiscard]] std::size_t poll_entry_op() const noexcept { return poll_entry_; }

  // Clear all register state (driver does this between windows).
  void reset_registers();

  // Reset every piece of per-window runtime state — registers and dynamic
  // filter entries — so a pipeline carried over from a previous plan
  // (partial recompile on a control-plane swap) behaves exactly like a
  // freshly compiled one. Cumulative counters are kept; the switch's obs
  // baselines re-snapshot them at install.
  void reset_runtime_state();

  // The augmented chain this pipeline was compiled from (identity key for
  // pipeline reuse across plan swaps).
  [[nodiscard]] const query::StreamNode& node() const noexcept { return node_; }

  // Replace the entry set of a dynamic-refinement filter table. Returns
  // false if this pipeline has no such table.
  bool set_filter_entries(const std::string& table_name,
                          std::vector<query::Tuple> entries);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }
  [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::uint64_t overflow_records() const noexcept { return overflows_; }
  [[nodiscard]] std::uint64_t key_report_records() const noexcept { return key_reports_; }
  [[nodiscard]] std::uint64_t stream_records() const noexcept {
    return emitted_ - overflows_ - key_reports_;
  }

  // Per-register-chain occupancy, read at window close (before the reset)
  // so the observability layer can publish register pressure per stage.
  struct StatefulOpStats {
    std::size_t op_index = 0;
    query::OpKind kind = query::OpKind::kDistinct;
    std::uint64_t keys_stored = 0;
    std::uint64_t slots = 0;  // total capacity: entries_per_register * depth
    std::uint64_t overflows = 0;
    // HashPipe mode: weight/keys evicted past the last stage this window
    // (the error bound standing in for overflow-to-SP correction).
    bool sketch = false;
    std::uint64_t evicted_weight = 0;
    std::uint64_t evicted_keys = 0;
  };
  [[nodiscard]] std::vector<StatefulOpStats> stateful_op_stats() const;

  // Collision-chain depth tally: probe_tally()[p] counts stateful-op
  // updates that examined p registers (index 0 unused; the last index
  // aggregates >= kProbeTallyMax probes). Plain single-writer counters —
  // a Switch is driven by one thread — so the hot path stays atomic-free.
  static constexpr int kProbeTallyMax = 8;
  [[nodiscard]] std::span<const std::uint64_t> probe_tally() const noexcept {
    return {probe_tally_, kProbeTallyMax + 1};
  }

 private:
  // Operators address columns by slot: slots [0, source columns) are the
  // PHV's, the rest are map outputs this pipeline computes (derived_).
  struct CompiledOp {
    query::OpKind kind = query::OpKind::kFilter;
    std::size_t op_index = 0;
    std::vector<std::uint32_t> env;  // slot of each input-schema column
    bool identity = true;            // the input row is the source tuple itself
    // filter: top-level conjuncts, each narrowing the selection
    std::vector<kernel::ColumnExpr> conjuncts;
    // filter_in: match expressions and the winner set (string match
    // columns keep their entry Values in entry_strings, [entry][column])
    std::vector<kernel::ColumnExpr> match;
    std::string table_name;
    util::FlatWordSet entries;
    std::vector<query::Value> entry_strings;
    // map: slot of each output column; computed outputs and their exprs
    std::vector<std::uint32_t> out_env;
    std::vector<std::pair<std::uint32_t, kernel::ColumnExpr>> computed;
    // distinct / reduce
    std::vector<std::size_t> key_idx;      // reduce: key positions in the input schema
    std::vector<std::uint32_t> key_slots;  // distinct: env; reduce: env[key_idx]
    std::size_t value_idx = 0;
    std::uint32_t value_slot = 0;
    query::ReduceFn fn = query::ReduceFn::kSum;
    std::unique_ptr<RegisterChain> chain;
    // folded threshold on the tail reduce
    std::optional<FoldedThreshold> folded;
    // filter_in / distinct / reduce: whether each key column is a string
    std::vector<std::uint8_t> key_string;
    std::size_t string_keys = 0;
    std::vector<kernel::Temp> match_temps;        // filter_in: match values of a run
    std::vector<const kernel::Column*> key_cols;  // distinct / reduce: &cols_[key_slots[c]]
  };

  struct DerivedColumn {
    bool string = false;
    std::vector<std::uint64_t> words;
    std::vector<const query::Value*> strings;
    std::vector<query::Value> owned;
  };

  std::uint32_t add_derived(bool string);
  // A derived column holding `v` in every row, filled once.
  std::uint32_t add_constant(const query::Value& v);
  // The tuple of block row `row` whose columns sit in `env` (the source
  // tuple itself when `identity`).
  [[nodiscard]] query::Tuple row_tuple(std::span<const std::uint32_t> env, bool identity,
                                       const kernel::Phv& phv, std::uint32_t row) const;
  void emit(EmitStaging& out, EmitRecord::Kind kind, std::size_t op_index, query::Tuple tuple,
            std::uint32_t row);
  std::size_t run_filter_in(CompiledOp& op, std::uint32_t* sel, std::size_t m,
                            kernel::Scratch& s);
  void run_map(CompiledOp& op, const std::uint32_t* sel, std::size_t m, kernel::Scratch& s);
  std::size_t run_stateful(CompiledOp& op, const kernel::Phv& phv, std::uint32_t* sel,
                           std::size_t m, kernel::Scratch& s, EmitStaging& out);

  const query::StreamNode& node_;
  Options opts_;
  std::vector<CompiledOp> ops_;
  CompiledOp* tail_reduce_ = nullptr;  // set when the last op is a reduce
  std::size_t poll_entry_ = 0;
  std::size_t source_cols_ = 0;             // width of the source schema
  std::vector<bool> slot_string_;           // by slot
  std::vector<kernel::Column> cols_;        // by slot; PHV slots bound per run
  std::vector<DerivedColumn> derived_;      // slot source_cols_ + i
  std::vector<std::uint32_t> tail_env_;     // row layout of a stateless tail
  bool tail_identity_ = true;
  std::vector<std::uint32_t> phv_cols_;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t key_reports_ = 0;
  std::uint64_t probe_tally_[kProbeTallyMax + 1] = {};
  // Batch-of-one state for process_into, made on first use.
  struct Single;
  std::unique_ptr<Single> single_;
};

// Counters the evaluation reads per window.
struct SwitchStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t records_emitted = 0;   // packet tuples sent to the SP
  std::uint64_t overflow_records = 0;  // subset of the above due to collisions
  std::uint64_t dropped_packets = 0;   // closed-loop mitigation drops
  std::uint64_t filter_entry_updates = 0;
  std::uint64_t register_resets = 0;
  // Modelled driver latency, a function of the two counts above (never
  // accumulated), so a window's delta does not depend on whether its
  // register reset ran before or after its filter installs.
  double control_update_millis = 0.0;
};

class Switch {
 public:
  explicit Switch(SwitchConfig cfg) : cfg_(std::move(cfg)) {}

  // Label this switch carries in its metric names (`sw="<label>"`).
  // Must be set before install(); the fleet uses the shard index, a
  // standalone runtime keeps the default "0".
  void set_obs_label(std::string label) { obs_label_ = std::move(label); }
  [[nodiscard]] const std::string& obs_label() const noexcept { return obs_label_; }

  // Install pipelines. Performs stage layout against the resource model and
  // refuses (returning the layout error) if the programs do not fit.
  [[nodiscard]] std::string install(std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines,
                                    const std::vector<ProgramResources>& resources);

  // Uninstall and hand back the compiled pipelines (a control-plane swap
  // recompiles only changed ones and reinstalls the rest). The switch is
  // left program-less until the next install().
  [[nodiscard]] std::vector<std::unique_ptr<CompiledSwitchQuery>> release_pipelines();

  // The data path: process every pre-materialized source tuple through
  // every installed pipeline, appending mirrored records to the
  // caller-owned sink in arrival order (packet by packet, pipelines in
  // install order). A Switch must be driven by at most one thread at a
  // time — the fleet pins each switch to a single worker.
  void process_batch(std::span<const query::Tuple> sources, EmitSink& sink);

  // Process one packet through every installed pipeline; emitted records
  // are appended to `out`.
  void process(const net::Packet& packet, std::vector<EmitRecord>& out);

  [[nodiscard]] const std::vector<std::unique_ptr<CompiledSwitchQuery>>& pipelines() const noexcept {
    return pipelines_;
  }
  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }
  [[nodiscard]] const SwitchConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }

  // -- driver surface -------------------------------------------------
  // Update a dynamic filter table (any pipeline that owns `table_name`).
  // Models per-entry update latency; returns number of pipelines updated.
  int update_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  // Reset all registers (end of window). Models reset latency.
  void reset_all_registers();

  // -- closed-loop mitigation (paper §8's long-term goal) -------------
  // Install a drop rule: packets whose source field equals `key` are
  // dropped before any telemetry pipeline sees them. `field` must be a
  // registered packet field. Models the same driver latency as a filter
  // entry update. Returns false for unknown fields.
  bool block(const std::string& field, const query::Value& key);
  void clear_blocks();
  [[nodiscard]] std::size_t blocked_keys() const noexcept;

  // Modelled driver latencies, calibrated to the paper's Tofino
  // micro-benchmark: 200 entry updates ~ 127 ms, register reset ~ 4 ms.
  static constexpr double kMillisPerEntryUpdate = 127.0 / 200.0;
  static constexpr double kMillisPerRegisterReset = 4.0;

 private:
  // Resolve metric handles for the installed pipelines (called once at
  // install) and publish the window's single-writer tallies into the
  // global registry (called from reset_all_registers, before clearing).
  void init_obs_handles();
  void publish_obs();
  // Recompute stats_.control_update_millis from the update and reset counts.
  void derive_control_latency() noexcept;
  // One block (at most kernel::kBlock tuples) through every pipeline.
  void process_block(std::span<const query::Tuple> block, EmitSink& sink);
  // Move the block's staged records into the sink in packet-then-pipeline
  // order, as per-packet processing would have appended them.
  void merge_staged(std::size_t rows, EmitSink& sink);

  struct ObsHandles {
    obs::Counter* packets = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* emit_stream = nullptr;
    obs::Counter* emit_key_report = nullptr;
    obs::Counter* emit_overflow = nullptr;
    obs::Histogram* probe_depth = nullptr;
    // Parallel to pipelines_; inner vector parallel to stateful_op_stats().
    std::vector<std::vector<obs::Gauge*>> occupancy;
    // Same shape; non-null only for HashPipe-backed ops (evicted weight).
    std::vector<std::vector<obs::Gauge*>> evicted;
    // Counters export deltas since the previous publish; these snapshot
    // the last-published cumulative totals.
    std::uint64_t packets_pub = 0;
    std::uint64_t dropped_pub = 0;
    std::uint64_t stream_pub = 0;
    std::uint64_t key_report_pub = 0;
    std::uint64_t overflow_pub = 0;
    std::vector<std::uint64_t> probe_pub;  // flattened [pipeline][depth]
  };

  SwitchConfig cfg_;
  std::vector<std::unique_ptr<CompiledSwitchQuery>> pipelines_;
  Layout layout_;
  SwitchStats stats_;
  EmitSink scratch_sink_;  // backs process()
  kernel::PhvBuffer phv_;
  std::unique_ptr<kernel::Scratch> scratch_ = std::make_unique<kernel::Scratch>();
  EmitStaging staging_;
  std::vector<std::uint32_t> live_;   // rows the guard table lets through
  std::vector<std::uint32_t> order_;    // merge_staged: staged index by output position
  std::vector<std::uint32_t> offsets_;  // merge_staged: first output position per row
  std::string obs_label_ = "0";
  ObsHandles obs_;
  // Guard table: source-schema column index -> blocked key values.
  std::vector<std::pair<std::size_t, std::unordered_set<query::Value, query::ValueHasher>>>
      blocks_;
};

}  // namespace sonata::pisa
