#include "runtime/window_merge.h"

#include <algorithm>
#include <cassert>

#include "runtime/stream_processor.h"

namespace sonata::runtime {

constexpr std::size_t kAhead = 8;  // entries prefetched ahead of the fold

void WindowMerge::merge(StreamProcessor& sp, const pisa::CompiledSwitchQuery& pipe,
                        std::size_t p, std::span<const ShardOutput> shards) {
  if (!pipe.has_stateful_tail()) return;
  std::uint64_t logical = 0;
  for (const ShardOutput& shard : shards) {
    if (shard.polls != nullptr) logical += (*shard.polls)[p].size();
  }
  if (stream::ChainExecutor* chain = logical == 0 ? nullptr : sp.ingest_merged(pipe, logical)) {
    chain->count_polled(fold(pipe, p, shards, chain->poll_reduce(pipe.poll_entry_op())));
  }
  for (const ShardOutput& shard : shards) {
    if (shard.polls != nullptr) (*shard.polls)[p].clear();
  }
}

std::uint64_t WindowMerge::fold(const pisa::CompiledSwitchQuery& pipe, std::size_t p,
                                std::span<const ShardOutput> shards, state::ReduceEngine& agg) {
  const std::span<const query::ValueKind> kinds = pipe.tail_key_kinds();
  const std::size_t arity = kinds.size();
  string_count_ = static_cast<std::size_t>(std::ranges::count(kinds, query::ValueKind::kString));
  const bool words = string_count_ == 0;
  // An empty exact reduce keyed on numbers takes the polls straight into
  // its word table.
  const bool direct = words && agg.exact() && agg.size() == 0;
  const query::ReduceFn fn = pipe.tail_reduce_fn();
  table_.reset(arity);
  values_.clear();
  strings_.clear();
  for (const ShardOutput& shard : shards) {
    if (shard.polls == nullptr) continue;
    pisa::PolledBlock& block = (*shard.polls)[p];
    assert(block.empty() || block.width() == arity);
    if (direct) {
      for (std::size_t i = 0, n = block.size(); i < n; ++i) {
        if (i + kAhead < n) agg.prefetch(block.hash(i + kAhead));
        agg.update(block.key(i), arity, block.hash(i), block.value(i));
      }
    } else if (string_count_ == 0) {
      fold_block(block, fn, [](std::size_t, std::size_t) { return true; });
    } else {
      // Equal words: the string columns' hashes agree, so compare bytes.
      fold_block(block, fn, [&](std::size_t e, std::size_t i) {
        const query::Value* s = block.strings(i);
        for (std::size_t j = 0; j < string_count_; ++j) {
          if (strings_[e * string_count_ + j] != s[j]) return false;
        }
        return true;
      });
    }
  }
  if (direct) return agg.size();
  const std::uint64_t* hashes = table_.hashes().data();
  for (std::size_t e = 0; e < values_.size(); ++e) {
    if (e + kAhead < values_.size()) agg.prefetch(hashes[e + kAhead]);
    if (words) {
      agg.update(table_.key(e), arity, hashes[e], values_[e]);
    } else {
      agg.update(take_key(e, kinds), hashes[e], values_[e]);
    }
  }
  return values_.size();
}

template <typename Same>
void WindowMerge::fold_block(pisa::PolledBlock& block, query::ReduceFn fn, Same&& same) {
  const std::size_t n = block.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) table_.prefetch(block.hash(i + kAhead));
    const auto [e, inserted] = table_.insert(block.key(i), block.hash(i),
                                             [&](std::size_t at) { return same(at, i); });
    if (inserted) {
      values_.push_back(block.value(i));
      query::Value* s = block.strings(i);
      for (std::size_t j = 0; j < string_count_; ++j) strings_.push_back(std::move(s[j]));
    } else {
      values_[e] = state::apply_reduce(fn, values_[e], block.value(i));
    }
  }
}

query::Tuple WindowMerge::take_key(std::size_t e, std::span<const query::ValueKind> kinds) {
  const std::uint64_t* w = table_.key(e);
  query::Value* s = strings_.data() + e * string_count_;
  query::Tuple t;
  t.values.reserve(kinds.size());
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    if (kinds[c] == query::ValueKind::kString) {
      t.values.push_back(std::move(*s++));
    } else {
      t.values.emplace_back(w[c]);
    }
  }
  return t;
}

}  // namespace sonata::runtime
