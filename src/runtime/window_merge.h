// The end-of-window merge of polled register aggregates (DESIGN.md
// "Parallel window merge"), the one fold of every driver's close: the
// Fleet folds its shards' polls (one for the single-switch Runtime), and the
// Collector the polls its switch nodes ship.
//
// Per pipeline with a stateful tail, the shards' PolledBlocks fold key-wise
// in ascending shard order into the stream processor's reduce at
// poll_entry_op(). First-appearance order across ascending shards is the
// insertion order a shard-by-shard ingest produces, and every tail reduce
// fn (sum/max/min/bit-or) is associative and commutative, so the fold is
// bit-identical to ingesting every shard's aggregates in turn. An empty
// exact number-keyed reduce takes the entries straight into its word
// table. Any other reduce takes the merged entries of a reused FlatWordSet
// fold once each: by words when number-keyed (an exact reduce that
// overflow records reached first, or a sketch), else as Tuples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pisa/register.h"
#include "pisa/switch.h"
#include "query/tuple.h"
#include "state/engine.h"
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
  // every contributing shard runs, into the stream processor's reduce.
  // `shards` are the contributing shards in ascending shard order; their
  // blocks of pipeline p are left empty. The SP's tuples_in counts the
  // pre-merge entries; its executors count the merged ones.
  void merge(StreamProcessor& sp, const pisa::CompiledSwitchQuery& pipe, std::size_t p,
             std::span<const ShardOutput> shards);

 private:
  // Fold pipeline p's blocks into `agg`; returns the merged entry count.
  std::uint64_t fold(const pisa::CompiledSwitchQuery& pipe, std::size_t p,
                     std::span<const ShardOutput> shards, state::ReduceEngine& agg);
  template <typename Same>
  void fold_block(pisa::PolledBlock& block, query::ReduceFn fn, Same&& same);
  // Merged entry e's key (of `kinds`) as a Tuple, its strings moved out.
  [[nodiscard]] query::Tuple take_key(std::size_t e, std::span<const query::ValueKind> kinds);

  util::FlatWordSet table_;
  std::vector<std::uint64_t> values_;     // by dense position
  std::vector<query::Value> strings_;     // [dense position][string column]
  std::size_t string_count_ = 0;
};

}  // namespace sonata::runtime
