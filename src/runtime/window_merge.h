// The end-of-window merge of polled register aggregates (DESIGN.md
// "Parallel window merge"), the one fold of every driver's close: the
// Fleet folds its shards' polls (one for the single-switch Runtime), and the
// Collector the polls its switch nodes ship.
//
// Per pipeline with a stateful tail, the shards' PolledBlocks fold key-wise
// in ascending shard order into a reused word-keyed dense table
// (util::FlatWordSet with parallel aggregates; string columns compare
// through its `same` predicate). First-appearance order across ascending
// shards is exactly the reduce-table insertion order a shard-by-shard
// ingest produces, and every tail reduce fn (sum/max/min/bit-or) is
// associative and commutative, so folding first and ingesting each merged
// key once is bit-identical to ingesting every shard's aggregates in turn.
// The merged (words, hash, aggregate) entries then go straight into the
// stream processor's reduce at the pipeline's poll_entry_op(): a merged
// key becomes a Tuple once, there, and is never re-hashed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pisa/register.h"
#include "pisa/switch.h"
#include "query/tuple.h"
#include "util/flat_table.h"

namespace sonata::runtime {

class StreamProcessor;

// One contributing shard's window output, the shared close's input. The
// close moves the records and raw tuples out and empties the poll blocks.
struct ShardOutput {
  std::span<pisa::EmitRecord> records;  // mirrored records, arrival order
  std::span<query::Tuple> raws;         // raw-mirror tuples, arrival order
  std::vector<pisa::PolledBlock>* polls = nullptr;  // per pipeline; nullptr: none
};

class WindowMerge {
 public:
  // Fold the stateful tail of `pipe`, pipeline `p` of the switch program
  // every contributing shard runs, and ingest the merged keys. `shards`
  // are the contributing shards in ascending shard order; their blocks of
  // pipeline p are left empty. The SP's tuples_in counts the pre-merge
  // entries; its executors count the merged ones.
  void merge(StreamProcessor& sp, const pisa::CompiledSwitchQuery& pipe, std::size_t p,
             std::span<const ShardOutput> shards);

  // The last fold's merged entries, in first-appearance order.
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::uint64_t* hashes() const noexcept { return table_.hashes().data(); }
  [[nodiscard]] const std::uint64_t* values() const noexcept { return values_.data(); }
  // Merged entry e's key as a Tuple; its string Values are moved out.
  [[nodiscard]] query::Tuple take_key(std::size_t e);

 private:
  // Fold pipeline p's blocks into the table; returns the pre-merge count.
  std::uint64_t fold(const pisa::CompiledSwitchQuery& pipe, std::size_t p,
                     std::span<const ShardOutput> shards);
  template <typename Same>
  void fold_block(pisa::PolledBlock& block, query::ReduceFn fn, Same&& same);

  util::FlatWordSet table_;
  std::vector<std::uint64_t> values_;     // by dense position
  std::vector<query::Value> strings_;     // [dense position][string column]
  std::vector<std::uint8_t> string_col_;  // per key column: 1 = string
  std::size_t string_count_ = 0;
};

}  // namespace sonata::runtime
