// Keyed-state engines for the stream processor (DESIGN.md "Keyed-state
// engines").
//
// A ChainExecutor's stateful operators (`distinct` membership, `reduce`
// aggregation) go through DistinctEngine / ReduceEngine. Each engine has
// two statically-dispatched modes selected by the query's StateSpec:
//
//   exact  -- the PR 4 FlatSet/FlatMap path, verbatim: same SWAR probe
//             loop, same first-insertion drain order, bit-identical
//             windows, memory linear in key cardinality. The sketch mode
//             costs the exact path exactly one well-predicted branch.
//   sketch -- fixed memory independent of cardinality. Distinct uses a
//             Bloom or cuckoo filter (false-positive rate <= eps, never
//             false-negative). Reduce uses count-min / count-sketch for
//             value estimates plus a fixed-capacity heavy-key store
//             (~2/eps slots, larger-estimate-wins eviction) so the window
//             drain can still emit (key, value) pairs for the keys that
//             matter; estimates are within eps*N with prob >= 1-delta.
//
// Both modes are deterministic for a given input sequence. kMin reduces
// stay exact even under a sketch spec (a zero-initialized counter array
// cannot represent min); this is documented engine behavior.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "query/ops.h"
#include "query/state_spec.h"
#include "query/tuple.h"
#include "state/sketch.h"
#include "util/flat_table.h"

namespace sonata::state {

// Apply a reduce function to an existing aggregate. (Shared by the SP
// engines and the PISA register arrays; pisa::apply_reduce forwards here.)
[[nodiscard]] constexpr std::uint64_t apply_reduce(query::ReduceFn fn, std::uint64_t current,
                                                   std::uint64_t delta) noexcept {
  switch (fn) {
    case query::ReduceFn::kSum: return current + delta;
    case query::ReduceFn::kMax: return current > delta ? current : delta;
    case query::ReduceFn::kMin: return current < delta ? current : delta;
    case query::ReduceFn::kBitOr: return current | delta;
  }
  return current;
}

// Aggregate usage a stateful engine reports to the obs layer.
struct StateUsage {
  std::uint64_t entries = 0;  // keys resident (exact) / slots occupied (sketch)
  std::uint64_t bytes = 0;    // actual memory footprint
  double error_bound = 0.0;   // 0 for exact; eps*N (reduce) or eps (distinct)
};

// --- sketched reduce --------------------------------------------------------

// Count-min / count-sketch estimator plus a fixed heavy-key store. The
// store keeps the keys themselves (a sketch alone cannot enumerate keys at
// drain); two candidate slots per key, the smaller current estimate is
// evicted when both are taken — HashPipe's "keep the larger" discipline
// applied at the SP.
class SketchReduce {
 public:
  SketchReduce(const query::StateSpec& spec, query::ReduceFn fn);

  void update(const query::Tuple& key, std::uint64_t hash, std::uint64_t delta);

  // Emit surviving (key, estimate) pairs in slot order (deterministic for
  // a given input sequence). Estimates are re-read from the sketch so a
  // slot whose key grew after its last touch reports the final value.
  template <typename Emit>
  void drain(Emit&& emit) {
    for (Slot& s : heavy_) {
      if (!s.occupied) continue;
      emit(std::move(s.key), estimate(s.hash));
    }
  }

  void clear();

  [[nodiscard]] std::uint64_t entries() const noexcept { return occupied_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_weight() const noexcept { return weight_; }
  [[nodiscard]] double eps() const noexcept { return eps_; }

 private:
  struct Slot {
    bool occupied = false;
    std::uint64_t hash = 0;
    std::uint64_t est = 0;  // estimate when last touched (eviction ordering)
    query::Tuple key;
  };

  [[nodiscard]] std::uint64_t estimate(std::uint64_t hash) const;

  query::ReduceFn fn_ = query::ReduceFn::kSum;
  double eps_ = 0.01;
  std::unique_ptr<CountMinSketch> cm_;
  std::unique_ptr<CountSketch> cs_;  // kSum only; cm_ used otherwise
  std::vector<Slot> heavy_;
  std::uint64_t hmask_ = 0;
  std::uint64_t occupied_ = 0;
  std::uint64_t weight_ = 0;  // N: total aggregated weight this window
};

// --- engines ----------------------------------------------------------------

class DistinctEngine {
 public:
  DistinctEngine() = default;  // exact

  void configure(const query::StateSpec& spec);

  // Returns true when the key was not seen before in this window. Sketch
  // mode may return false for a genuinely new key at rate <= eps.
  bool insert_new(const query::Tuple& t, std::uint64_t hash) {
    if (!sketch_) return insert_exact(t, hash);
    const bool fresh = bloom_ ? bloom_->insert_new(hash) : cuckoo_->insert_new(hash);
    sketch_entries_ += fresh ? 1 : 0;
    return fresh;
  }

  void clear() {
    if (!sketch_) {
      words_.clear();
      exact_.clear();
    } else if (bloom_) {
      bloom_->clear();
      sketch_entries_ = 0;
    } else {
      cuckoo_->clear();
      sketch_entries_ = 0;
    }
  }

  [[nodiscard]] bool exact() const noexcept { return !sketch_; }
  [[nodiscard]] StateUsage usage() const;

  // Exact-mode Tuple set (keys holding a string), for probe-depth/load obs
  // (null in sketch mode).
  [[nodiscard]] const util::FlatSet* exact_set() const noexcept {
    return sketch_ ? nullptr : &exact_;
  }
  [[nodiscard]] util::FlatSet* exact_set() noexcept { return sketch_ ? nullptr : &exact_; }

 private:
  // Exact mode keeps an all-numeric tuple as its words (8 B a column, plus
  // its hash and index slot) and any other tuple whole; a tuple holding a
  // string never equals an all-numeric one, so each key is in one set once.
  bool insert_exact(const query::Tuple& t, std::uint64_t hash) {
    probe_.clear();
    for (const query::Value& v : t.values) {
      if (!v.is_uint()) return exact_.insert(t, hash);
      probe_.push_back(v.as_uint());
    }
    if (words_.empty()) words_.reset(probe_.size());
    if (words_.arity() != probe_.size()) return exact_.insert(t, hash);
    return words_.insert(probe_.data(), hash, [](std::size_t) { return true; }).second;
  }

  bool sketch_ = false;
  util::FlatWordSet words_;
  std::vector<std::uint64_t> probe_;  // insert_exact's key words
  util::FlatSet exact_;
  std::unique_ptr<BloomFilter> bloom_;
  std::unique_ptr<CuckooFilter> cuckoo_;
  double eps_ = 0.0;
  std::uint64_t sketch_entries_ = 0;
};

class ReduceEngine {
 public:
  ReduceEngine() = default;  // exact

  void configure(const query::StateSpec& spec, query::ReduceFn fn);

  void update(query::Tuple&& key, std::uint64_t hash, std::uint64_t delta) {
    if (!sketch_) {
      if (tuple_keys_ || !update_words(key, hash, delta)) {
        const auto [slot, inserted] = exact_.try_emplace(std::move(key), hash, delta);
        if (!inserted) *slot = apply_reduce(fn_, *slot, delta);
      }
      return;
    }
    sketch_->update(key, hash, delta);
  }

  // update() for an all-numeric key given as its `arity` words in key
  // order (`hash` is its Tuple::hash()): the window merge's entry for
  // polled register aggregates, which folds them straight into the word
  // table with no Tuple built. A sketch, or a window whose keys moved to
  // Tuples, takes the key as a Tuple.
  void update(const std::uint64_t* key, std::size_t arity, std::uint64_t hash,
              std::uint64_t delta) {
    if (!sketch_ && !tuple_keys_) {
      if (words_.empty()) words_.reset(arity);
      if (words_.arity() == arity) {
        fold_words(key, hash, delta);
        return;
      }
      move_to_tuple_keys();
    }
    update(words_key(key, arity), hash, delta);
  }

  // Software-prefetch the exact table's first probe slot for `hash` (a
  // no-op for sketches): batched callers that know their hashes ahead of
  // time overlap the index miss with the current update.
  void prefetch(std::uint64_t hash) const noexcept {
    if (sketch_) return;
    if (tuple_keys_) {
      exact_.prefetch(hash);
    } else {
      words_.prefetch(hash);
    }
  }

  // Drain (key, value) pairs in the engine's canonical order and leave the
  // table cleared. Exact mode preserves first-insertion order
  // bit-for-bit: the word-keyed entries first, as one run handed to
  // `words(keys, aggs, n, arity)` (n keys of `arity` words each, densely,
  // and their aggregates), then every Tuple-keyed entry through
  // `emit(key, value)`, its key moved out. A sketch emits its surviving
  // keys the same way.
  template <typename Words, typename Emit>
  void drain_and_clear(Words&& words, Emit&& emit) {
    if (!sketch_) {
      if (!words_.empty()) {
        words(words_.key(0), word_aggs_.data(), words_.size(), words_.arity());
      }
      for (auto& e : exact_.entries()) emit(std::move(e.key), e.value);
      clear();
      return;
    }
    sketch_->drain(emit);
    sketch_->clear();
  }
  // drain_and_clear() with every key as a Tuple.
  template <typename Emit>
  void drain_and_clear(Emit&& emit) {
    drain_and_clear(
        [&](const std::uint64_t* keys, const std::uint64_t* aggs, std::size_t n,
            std::size_t arity) {
          for (std::size_t e = 0; e < n; ++e) emit(words_key(keys + e * arity, arity), aggs[e]);
        },
        emit);
  }

  void clear() {
    if (!sketch_) {
      words_.clear();
      word_aggs_.clear();
      exact_.clear();
      tuple_keys_ = false;
    } else {
      sketch_->clear();
    }
  }

  [[nodiscard]] bool exact() const noexcept { return !sketch_; }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return sketch_ ? sketch_->entries() : words_.size() + exact_.size();
  }
  [[nodiscard]] StateUsage usage() const;

  // Exact-mode Tuple-keyed map, for probe-depth/load obs (null in sketch
  // mode).
  [[nodiscard]] const util::FlatMap<std::uint64_t>* exact_map() const noexcept {
    return sketch_ ? nullptr : &exact_;
  }
  [[nodiscard]] util::FlatMap<std::uint64_t>* exact_map() noexcept {
    return sketch_ ? nullptr : &exact_;
  }

 private:
  // Exact mode keeps all-numeric keys as words (8 B a column, plus hash,
  // aggregate and index slot) until a window's first key holding a string;
  // that key moves the window's entries to Tuple keys, in insertion order.
  bool update_words(const query::Tuple& key, std::uint64_t hash, std::uint64_t delta) {
    probe_.clear();
    for (const query::Value& v : key.values) {
      if (!v.is_uint()) return move_to_tuple_keys();
      probe_.push_back(v.as_uint());
    }
    if (words_.empty()) words_.reset(probe_.size());
    if (words_.arity() != probe_.size()) return move_to_tuple_keys();
    fold_words(probe_.data(), hash, delta);
    return true;
  }
  void fold_words(const std::uint64_t* key, std::uint64_t hash, std::uint64_t delta) {
    const auto [at, inserted] = words_.insert(key, hash, [](std::size_t) { return true; });
    if (inserted) {
      word_aggs_.push_back(delta);
    } else {
      word_aggs_[at] = apply_reduce(fn_, word_aggs_[at], delta);
    }
  }
  bool move_to_tuple_keys() {
    tuple_keys_ = true;
    exact_.reserve(words_.size());
    for (std::size_t e = 0; e < words_.size(); ++e) {
      exact_.try_emplace(words_key(words_.key(e), words_.arity()), words_.hashes()[e],
                         word_aggs_[e]);
    }
    words_.clear();
    word_aggs_.clear();
    return false;
  }
  [[nodiscard]] static query::Tuple words_key(const std::uint64_t* words, std::size_t arity) {
    query::Tuple key;
    key.values.reserve(arity);
    for (std::size_t c = 0; c < arity; ++c) key.values.emplace_back(words[c]);
    return key;
  }

  query::ReduceFn fn_ = query::ReduceFn::kSum;
  bool tuple_keys_ = false;  // this window's keys moved to exact_
  util::FlatWordSet words_;
  std::vector<std::uint64_t> word_aggs_;  // by dense position in words_
  std::vector<std::uint64_t> probe_;      // update_words' key words
  util::FlatMap<std::uint64_t> exact_;
  std::unique_ptr<SketchReduce> sketch_;  // null = exact mode
};

}  // namespace sonata::state
