// The stream processor: a windowed dataflow interpreter standing in for
// Spark Streaming (see DESIGN.md substitutions).
//
// Execution model. Tuples are ingested during a window and results are
// produced at window end. A ChainExecutor runs one node's operator chain
// with per-operator keyed state; a tuple may enter at any operator index —
// this is how partitioned execution works:
//   * stateless switch tails stream tuples in at the partition point,
//   * register overflow packets re-enter at the stateful operator that
//     overflowed (the SP re-aggregates them, paper §3.1.3),
//   * end-of-window register polls enter after the reduce (and folded
//     threshold) the switch already applied.
// Joins always run here: children are flushed at window end and hash-joined
// (paper §3.1.2).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "query/query.h"
#include "query/state_spec.h"
#include "state/engine.h"
#include "util/flat_table.h"

namespace sonata::stream {

class ChainExecutor {
 public:
  // Binds evaluators for all operators of `node` (which must be validated
  // and outlive the executor). `spec` selects the keyed-state engines for
  // the chain's distinct/reduce operators (default: exact FlatTable path,
  // bit-identical to pre-engine behavior).
  explicit ChainExecutor(const query::StreamNode& node,
                         const query::StateSpec& spec = {});

  // Run `t` through ops[entry..). Outputs reaching the chain end are
  // buffered for end_window().
  void ingest(query::Tuple t, std::size_t entry);

  // Run `t` through ops[entry..) reading it in place: filters, filter_in
  // and distinct probe it where it is, and only what a map builds, a
  // distinct or reduce keeps, or the chain end buffers is copied. The
  // planner's replays of training tuples enter here.
  void ingest_view(const query::Tuple& t, std::size_t entry);

  // Batched ingest: every tuple in `ts` is MOVED through ops[entry..) —
  // the batched data path hands whole shard buffers over without copying
  // a tuple. Callers must treat `ts` as consumed.
  void ingest_batch(std::span<query::Tuple> ts, std::size_t entry);

  // Fold `n` keyed aggregates straight into the reduce at ops[entry]: the
  // i-th has key key_at(i) (a Tuple in the reduce's key order), Tuple hash
  // hashes[i] and aggregate values[i]. Equivalent to ingesting reduce-input
  // tuples carrying those keys and values at `entry`, without building,
  // projecting or re-hashing them — the window merge's entry for polled
  // register aggregates. Counts n ingested tuples.
  template <typename KeyAt>
  void ingest_reduce(std::size_t entry, std::size_t n, const std::uint64_t* hashes,
                     const std::uint64_t* values, KeyAt&& key_at);

  // Flush stateful operators (ascending), collect outputs, clear state.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  // Update a dynamic-refinement filter table executed on the SP side.
  bool set_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  [[nodiscard]] std::uint64_t tuples_ingested() const noexcept { return ingested_; }

  // Total keyed-state entries currently held (distinct sets + reduce maps)
  // — the SP-side analogue of register occupancy.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;

  // Entries plus actual memory footprint and the accumulated error bound —
  // a sketch engine's occupancy gauge is meaningless without its (fixed)
  // byte count, so the obs layer publishes both.
  [[nodiscard]] state::StateUsage state_usage() const noexcept;

 private:
  struct BoundOp {
    query::OpKind kind = query::OpKind::kFilter;
    query::Expr::Evaluator pred;                      // filter
    std::vector<query::Expr::Evaluator> match;        // filter_in
    std::string table_name;
    util::FlatSet entries;                            // filter_in (persists windows)
    query::Tuple probe_scratch;                       // reused filter_in probe key
    std::vector<query::Expr::Evaluator> projections;  // map
    std::vector<std::size_t> key_idx;                 // reduce
    std::size_t value_idx = 0;
    query::ReduceFn fn = query::ReduceFn::kSum;
    // per-window keyed state behind the engine facade: exact mode is the
    // PR 4 flat table verbatim, sketch mode bounds memory (DESIGN.md
    // "Keyed-state engines").
    state::DistinctEngine seen;   // distinct
    state::ReduceEngine agg;      // reduce
  };

  void process(query::Tuple&& t, std::size_t i);
  // Per-op steps shared by process() and ingest_view().
  static bool passes_filter_in(BoundOp& op, const query::Tuple& t);
  static query::Tuple mapped(const BoundOp& op, const query::Tuple& t);
  static void fold(BoundOp& op, const query::Tuple& t);
  void publish_table_obs();

  const query::StreamNode& node_;
  std::vector<BoundOp> ops_;
  std::vector<query::Tuple> pending_;
  std::uint64_t ingested_ = 0;
  std::uint64_t ingested_pub_ = 0;  // last value published to the registry
};

template <typename KeyAt>
void ChainExecutor::ingest_reduce(std::size_t entry, std::size_t n, const std::uint64_t* hashes,
                                  const std::uint64_t* values, KeyAt&& key_at) {
  BoundOp& op = ops_.at(entry);
  assert(op.kind == query::OpKind::kReduce);
  ingested_ += n;
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) op.agg.prefetch(hashes[i + kAhead]);
    op.agg.update(key_at(i), hashes[i], values[i]);
  }
}

// Executes a whole (sub)tree: join children recursively, then this node's
// chain.
class NodeExecutor {
 public:
  explicit NodeExecutor(const query::StreamNode& node,
                        const query::StateSpec& spec = {});

  [[nodiscard]] const query::StreamNode& node() const noexcept { return node_; }
  [[nodiscard]] ChainExecutor& chain() noexcept { return chain_; }
  [[nodiscard]] NodeExecutor* left() noexcept { return left_.get(); }
  [[nodiscard]] NodeExecutor* right() noexcept { return right_.get(); }

  // Flush children, join their outputs (if a join node), run them through
  // this node's chain, and flush it.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  // Keyed-state entries across this node's chain and all children.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;
  [[nodiscard]] state::StateUsage state_usage() const noexcept;

 private:
  const query::StreamNode& node_;
  std::unique_ptr<NodeExecutor> left_;
  std::unique_ptr<NodeExecutor> right_;
  ChainExecutor chain_;
  // Join nodes: key and non-key column indices of each side, and the build
  // side's index, reused every window: a build key maps to the (head, tail)
  // of its rows' chain through join_next_, so a key's rows stay in rhs order.
  std::vector<std::size_t> lkeys_, rkeys_, lrest_, rrest_;
  util::FlatMap<std::pair<std::uint32_t, std::uint32_t>> join_index_;
  std::vector<std::uint32_t> join_next_;
};

// Stream-processor-side execution of one query. Sources are indexed in the
// same DFS order as Query::sources().
class QueryExecutor {
 public:
  explicit QueryExecutor(const query::Query& q);

  // Ingest a tuple into source `source_index` at operator `entry`.
  void ingest(int source_index, query::Tuple t, std::size_t entry);

  // Batched ingest; tuples in `ts` are moved (see ChainExecutor).
  void ingest_batch(int source_index, std::span<query::Tuple> ts, std::size_t entry);

  // ChainExecutor::ingest_reduce on source `source_index`.
  template <typename KeyAt>
  void ingest_reduce(int source_index, std::size_t entry, std::size_t n,
                     const std::uint64_t* hashes, const std::uint64_t* values, KeyAt&& key_at) {
    sources_.at(static_cast<std::size_t>(source_index))
        ->chain()
        .ingest_reduce(entry, n, hashes, values, key_at);
  }

  // Convenience for unpartitioned (All-SP) execution: materialize the
  // packet once and feed every source at entry 0. ingest_source_tuple reads
  // the tuple in place (ChainExecutor::ingest_view).
  void ingest_packet(const net::Packet& p);
  void ingest_source_tuple(const query::Tuple& source_tuple);

  // Close the window: run joins and flushes; returns the query's results.
  [[nodiscard]] std::vector<query::Tuple> end_window();

  bool set_filter_entries(const std::string& table_name, std::vector<query::Tuple> entries);

  // Keyed-state entries across the whole executor tree.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;
  [[nodiscard]] state::StateUsage state_usage() const noexcept;

  // Number of source entry points (DFS order). Delivery paths fed by an
  // untrusted wire bounds-check their source index against this.
  [[nodiscard]] std::size_t source_count() const noexcept { return sources_.size(); }

  [[nodiscard]] const query::Query& query() const noexcept { return *query_; }
  [[nodiscard]] const query::Schema& output_schema() const {
    return query_->root()->output_schema();
  }

 private:
  const query::Query* query_;
  std::unique_ptr<NodeExecutor> root_;
  std::vector<NodeExecutor*> sources_;  // DFS order, matches Query::sources()
};

}  // namespace sonata::stream
