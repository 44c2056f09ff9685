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
//   * end-of-window register polls fold, as key words, into the reduce
//     the switch ran (runtime::WindowMerge).
// The close runs on columns (RowBlock): each reduce drains into a block,
// the filters and maps after it run over kernel::kBlock-row slices with
// the switch's lowered evaluator, and joins build and probe on the
// children's blocks (paper §3.1.2: joins always run here).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "pisa/kernel.h"
#include "query/query.h"
#include "query/state_spec.h"
#include "state/engine.h"
#include "util/flat_table.h"

namespace sonata::stream {

// A node's rows at the window close, as columns: one 64-bit word per row
// of every column (a number as-is, a string as its Value::hash(), the
// layout kernel::Phv gives the switch) and, for a string column, the row's
// Value itself. Reduce drains, the filters and maps after them, and joins
// run over blocks; a block is reused window after window.
class RowBlock {
 public:
  // Empty the block and lay it out for rows of `schema` (capacity kept).
  void reset(const query::Schema& schema);

  [[nodiscard]] std::size_t size() const noexcept { return rows_; }
  [[nodiscard]] std::size_t width() const noexcept { return words_.size(); }
  [[nodiscard]] bool is_string(std::size_t c) const noexcept { return string_[c] != 0; }
  [[nodiscard]] const std::uint64_t* words(std::size_t c) const noexcept {
    return words_[c].data();
  }
  // A string column's Values by row (null for a numeric column).
  [[nodiscard]] const query::Value* values(std::size_t c) const noexcept {
    return string_[c] != 0 ? values_[c].data() : nullptr;
  }

  // Append a row; its string Values are moved. A row wider or narrower
  // than the layout (only a corrupted record can be one) is cut or padded
  // with zeros.
  void append(query::Tuple&& t);
  // Append n rows of an all-numeric key of `arity` words (row-major, as
  // ReduceEngine::drain_and_clear hands them out) and its aggregate.
  void append_words(const std::uint64_t* keys, const std::uint64_t* aggs, std::size_t n,
                    std::size_t arity);
  // Append rows sel[0..m) of `cols`, one Column per block column.
  void append_columns(const pisa::kernel::Column* cols, const std::uint32_t* sel, std::size_t m);
  // Append to column c the entries rows[0..m) of column fc of `from`;
  // end_append(m) then counts the m rows every column received.
  void append_column(std::size_t c, const RowBlock& from, std::size_t fc,
                     const std::uint32_t* rows, std::size_t m);
  void end_append(std::size_t m) noexcept { rows_ += m; }

  // The rows as Tuples, in order; string Values are moved out.
  [[nodiscard]] std::vector<query::Tuple> take_tuples();
  // Append to `out` the distinct values of column c as one-column Tuples,
  // in first-appearance order: the close's winner keys.
  void distinct_column(std::size_t c, std::vector<query::Tuple>& out);

 private:
  void push(std::size_t c, std::uint64_t word) {
    if (string_[c] != 0) {
      values_[c].emplace_back(word);
      word = values_[c].back().hash();
    }
    words_[c].push_back(word);
  }
  void push(std::size_t c, query::Value&& v) {
    if (string_[c] != 0) {
      words_[c].push_back(v.hash());
      values_[c].push_back(std::move(v));
    } else {
      words_[c].push_back(v.as_uint());
    }
  }

  std::vector<std::uint8_t> string_;                // per column: 1 = string
  std::vector<std::vector<std::uint64_t>> words_;   // [column][row]
  std::vector<std::vector<query::Value>> values_;   // [string column][row]
  std::size_t rows_ = 0;
  util::FlatWordSet seen_;               // distinct_column's, reused
  std::vector<std::uint32_t> seen_rows_;  // its entries' rows
};

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

  // The reduce at ops[entry], into which the window merge folds polled
  // register aggregates (ReduceEngine::update by words), and the count of
  // merged entries it folded, which the chain counts as ingested tuples.
  [[nodiscard]] state::ReduceEngine& poll_reduce(std::size_t entry);
  void count_polled(std::uint64_t merged) noexcept { ingested_ += merged; }

  // Close the window (DESIGN.md "Parallel window close"): run `joined`
  // (a join node's joined rows, or null) through the chain from ops[0],
  // drain the reduces in ascending order, and return the chain's output: the
  // rows in-window ingest left at the chain end, then the drained rows
  // that reach it. Drained rows run the filters and maps after their
  // reduce on columns, kernel::kBlock rows at a time; a row that reaches
  // a later distinct, filter_in or reduce becomes a Tuple there and goes
  // on through the per-tuple path. The block stays valid until the next
  // close; the keyed state is cleared.
  RowBlock& close(const RowBlock* joined = nullptr);

  // close() with the output as Tuples.
  [[nodiscard]] std::vector<query::Tuple> end_window() { return close().take_tuples(); }

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
    // The close's column form: a filter's conjuncts, a map's projections.
    std::vector<pisa::kernel::ColumnExpr> columns;
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
  // The close's column path: rows of `in` (columns of schemas[entry])
  // through ops[entry..), see close().
  void run_columns(const RowBlock& in, std::size_t entry);
  // Move pending_ to the end of out_.
  void flush_pending();

  const query::StreamNode& node_;
  std::vector<BoundOp> ops_;
  std::vector<query::Tuple> pending_;
  std::uint64_t ingested_ = 0;
  std::uint64_t ingested_pub_ = 0;  // last value published to the registry
  // The close's reused state: the output, a reduce's drained rows, and
  // the column path's views, selection and temps.
  RowBlock out_;
  RowBlock drained_;
  std::vector<pisa::kernel::Column> cols_, next_cols_;
  std::vector<std::vector<const query::Value*>> strings_;  // per block column
  pisa::kernel::Scratch scratch_;
};

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

  // Close the children, join their blocks (if a join node) and close this
  // node's chain on the joined rows; returns the chain's output block.
  RowBlock& close();

  // Keyed-state entries across this node's chain and all children.
  [[nodiscard]] std::uint64_t stateful_entries() const noexcept;
  [[nodiscard]] state::StateUsage state_usage() const noexcept;

 private:
  // Hash-join `lhs` with `rhs` into joined_: build on the right, probe in
  // left-row order, a key's matches in right-row order.
  void join(const RowBlock& lhs, const RowBlock& rhs);
  // Key words of row r of `b` (key columns `keys`) into key_; returns
  // their hash, Tuple::hash() of the projected key.
  std::uint64_t key_of(const RowBlock& b, std::span<const std::size_t> keys, std::size_t r);

  const query::StreamNode& node_;
  std::unique_ptr<NodeExecutor> left_;
  std::unique_ptr<NodeExecutor> right_;
  ChainExecutor chain_;
  // Join nodes: key and non-key column indices of each side, and the
  // join's reused state: the build side's key index (entry e's rows run
  // heads_[e], next_[heads_[e]], ... in rhs order), the matched row
  // pairs and the joined rows.
  std::vector<std::size_t> lkeys_, rkeys_, lrest_, rrest_;
  util::FlatWordSet index_;
  std::vector<std::uint32_t> heads_, tails_, next_;
  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> lrows_, rrows_;
  RowBlock joined_;
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

  // The chain of source `source_index` (DFS order).
  [[nodiscard]] ChainExecutor& source_chain(int source_index) {
    return sources_.at(static_cast<std::size_t>(source_index))->chain();
  }

  // Convenience for unpartitioned (All-SP) execution: materialize the
  // packet once and feed every source at entry 0. ingest_source_tuple reads
  // the tuple in place (ChainExecutor::ingest_view).
  void ingest_packet(const net::Packet& p);
  void ingest_source_tuple(const query::Tuple& source_tuple);

  // Close the window: run joins and flushes; returns the query's results
  // as the root's block (valid until the next close) or as Tuples.
  RowBlock& close() { return root_->close(); }
  [[nodiscard]] std::vector<query::Tuple> end_window() { return close().take_tuples(); }

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
