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
    if (!sketch_) return exact_.insert(t, hash);
    const bool fresh = bloom_ ? bloom_->insert_new(hash) : cuckoo_->insert_new(hash);
    sketch_entries_ += fresh ? 1 : 0;
    return fresh;
  }

  void clear() {
    if (!sketch_) {
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

  // Exact-mode set, for probe-depth/load obs (null in sketch mode).
  [[nodiscard]] const util::FlatSet* exact_set() const noexcept {
    return sketch_ ? nullptr : &exact_;
  }
  [[nodiscard]] util::FlatSet* exact_set() noexcept { return sketch_ ? nullptr : &exact_; }

 private:
  bool sketch_ = false;
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
      const auto [slot, inserted] = exact_.try_emplace(std::move(key), hash, delta);
      if (!inserted) *slot = apply_reduce(fn_, *slot, delta);
      return;
    }
    sketch_->update(key, hash, delta);
  }

  // Software-prefetch the exact table's first probe chunk for `hash` (a
  // no-op for sketches): batched callers that know their hashes ahead of
  // time overlap the index miss with the current update.
  void prefetch(std::uint64_t hash) const noexcept {
    if (!sketch_) exact_.prefetch(hash);
  }

  // Drain (key, value) pairs in the engine's canonical order. Exact mode
  // preserves PR 4's first-insertion order bit-for-bit; keys are moved out
  // and the table is left cleared either way.
  template <typename Emit>
  void drain_and_clear(Emit&& emit) {
    if (!sketch_) {
      for (auto& e : exact_.entries()) emit(std::move(e.key), e.value);
      exact_.clear();
      return;
    }
    sketch_->drain(emit);
    sketch_->clear();
  }

  void clear() {
    if (!sketch_) {
      exact_.clear();
    } else {
      sketch_->clear();
    }
  }

  [[nodiscard]] bool exact() const noexcept { return !sketch_; }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return sketch_ ? sketch_->entries() : exact_.size();
  }
  [[nodiscard]] StateUsage usage() const;

  // Exact-mode map, for probe-depth/load obs (null in sketch mode).
  [[nodiscard]] const util::FlatMap<std::uint64_t>* exact_map() const noexcept {
    return sketch_ ? nullptr : &exact_;
  }
  [[nodiscard]] util::FlatMap<std::uint64_t>* exact_map() noexcept {
    return sketch_ ? nullptr : &exact_;
  }

 private:
  query::ReduceFn fn_ = query::ReduceFn::kSum;
  util::FlatMap<std::uint64_t> exact_;
  std::unique_ptr<SketchReduce> sketch_;  // null = exact mode
};

}  // namespace sonata::state
