#include "runtime/window_merge.h"

#include <cassert>

#include "runtime/stream_processor.h"
#include "state/engine.h"

namespace sonata::runtime {

void WindowMerge::merge(StreamProcessor& sp, const pisa::CompiledSwitchQuery& pipe,
                        std::size_t p, std::span<const ShardOutput> shards) {
  if (!pipe.has_stateful_tail()) return;
  const std::uint64_t logical = fold(pipe, p, shards);
  if (logical != 0) sp.ingest_merged(pipe, logical, *this);
}

std::uint64_t WindowMerge::fold(const pisa::CompiledSwitchQuery& pipe, std::size_t p,
                                std::span<const ShardOutput> shards) {
  const std::span<const query::ValueKind> kinds = pipe.tail_key_kinds();
  table_.reset(kinds.size());
  values_.clear();
  strings_.clear();
  string_col_.resize(kinds.size());
  string_count_ = 0;
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    string_col_[c] = kinds[c] == query::ValueKind::kString ? 1 : 0;
    string_count_ += string_col_[c];
  }
  const query::ReduceFn fn = pipe.tail_reduce_fn();
  std::uint64_t logical = 0;
  for (const ShardOutput& shard : shards) {
    if (shard.polls == nullptr) continue;
    pisa::PolledBlock& block = (*shard.polls)[p];
    assert(block.empty() || block.width() == kinds.size());
    logical += block.size();
    if (string_count_ == 0) {
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
    block.clear();
  }
  return logical;
}

template <typename Same>
void WindowMerge::fold_block(pisa::PolledBlock& block, query::ReduceFn fn, Same&& same) {
  constexpr std::size_t kAhead = 8;
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

query::Tuple WindowMerge::take_key(std::size_t e) {
  const std::uint64_t* w = table_.key(e);
  query::Value* s = strings_.data() + e * string_count_;
  query::Tuple t;
  t.values.reserve(string_col_.size());
  for (std::size_t c = 0; c < string_col_.size(); ++c) {
    if (string_col_[c] != 0) {
      t.values.push_back(std::move(*s++));
    } else {
      t.values.emplace_back(w[c]);
    }
  }
  return t;
}

}  // namespace sonata::runtime
