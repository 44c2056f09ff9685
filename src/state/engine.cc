#include "state/engine.h"

#include <algorithm>
#include <cmath>

namespace sonata::state {

namespace {

// Heavy-key store capacity: enough slots that every key of weight share
// > eps can survive eviction (2/eps with headroom), power of two for
// masked indexing, clamped to [64, 1M] slots.
[[nodiscard]] std::uint64_t heavy_slots_for(double eps) {
  const auto want = static_cast<std::uint64_t>(std::ceil(2.0 / eps));
  return pow2_at_least(std::clamp<std::uint64_t>(want, 64, 1ULL << 20));
}

}  // namespace

// --- SketchReduce -----------------------------------------------------------

SketchReduce::SketchReduce(const query::StateSpec& spec, query::ReduceFn fn)
    : fn_(fn), eps_(spec.eps) {
  // Count-sketch is a sum estimator; any other fold falls back to
  // count-min (monotone merges with identity 0).
  if (spec.family == query::StateSpec::Family::kCountSketch && fn == query::ReduceFn::kSum) {
    cs_ = std::make_unique<CountSketch>(spec.eps, spec.delta);
  } else {
    cm_ = std::make_unique<CountMinSketch>(spec.eps, spec.delta);
  }
  heavy_.resize(heavy_slots_for(spec.eps));
  hmask_ = heavy_.size() - 1;
}

std::uint64_t SketchReduce::estimate(std::uint64_t hash) const {
  return cs_ ? cs_->estimate(hash) : cm_->estimate(hash, fn_);
}

void SketchReduce::update(const query::Tuple& key, std::uint64_t hash, std::uint64_t delta) {
  weight_ += delta;
  if (cs_) {
    cs_->update(hash, delta);
  } else {
    cm_->update(hash, delta, fn_);
  }
  const std::uint64_t est = estimate(hash);

  // Two candidate slots from disjoint bit ranges of the key hash; the
  // occupant with the smaller last-touched estimate is the eviction victim.
  Slot& s1 = heavy_[hash & hmask_];
  Slot& s2 = heavy_[(hash >> 21) & hmask_];
  for (Slot* s : {&s1, &s2}) {
    if (s->occupied && s->hash == hash && s->key == key) {
      s->est = est;
      return;
    }
  }
  for (Slot* s : {&s1, &s2}) {
    if (!s->occupied) {
      s->occupied = true;
      s->hash = hash;
      s->est = est;
      s->key = key;
      ++occupied_;
      return;
    }
  }
  Slot& victim = s1.est <= s2.est ? s1 : s2;
  if (est > victim.est) {
    victim.hash = hash;
    victim.est = est;
    victim.key = key;
  }
}

void SketchReduce::clear() {
  if (cs_) {
    cs_->clear();
  } else {
    cm_->clear();
  }
  for (Slot& s : heavy_) {
    if (!s.occupied) continue;
    s.occupied = false;
    s.hash = 0;
    s.est = 0;
    s.key = query::Tuple{};
  }
  occupied_ = 0;
  weight_ = 0;
}

std::uint64_t SketchReduce::bytes() const noexcept {
  const std::uint64_t sketch_bytes = cs_ ? cs_->bytes() : cm_->bytes();
  return sketch_bytes + heavy_.capacity() * sizeof(Slot);
}

// --- DistinctEngine ---------------------------------------------------------

void DistinctEngine::configure(const query::StateSpec& spec) {
  sketch_ = spec.sketch();
  bloom_.reset();
  cuckoo_.reset();
  sketch_entries_ = 0;
  eps_ = 0.0;
  if (!sketch_) return;
  eps_ = spec.eps;
  if (spec.membership == query::StateSpec::Membership::kBloom) {
    bloom_ = std::make_unique<BloomFilter>(spec.capacity, spec.eps);
  } else {
    cuckoo_ = std::make_unique<CuckooFilter>(spec.capacity, spec.eps);
  }
}

StateUsage DistinctEngine::usage() const {
  StateUsage u;
  if (!sketch_) {
    u.entries = words_.size() + exact_.size();
    u.bytes = words_.memory_bytes() + exact_.memory_bytes();
    return u;
  }
  u.entries = sketch_entries_;
  u.bytes = bloom_ ? bloom_->bytes() : cuckoo_->bytes();
  u.error_bound = eps_;
  return u;
}

// --- ReduceEngine -----------------------------------------------------------

void ReduceEngine::configure(const query::StateSpec& spec, query::ReduceFn fn) {
  fn_ = fn;
  // kMin cannot ride a zero-initialized counter sketch; stay exact.
  sketch_.reset();
  if (spec.sketch() && fn != query::ReduceFn::kMin) {
    sketch_ = std::make_unique<SketchReduce>(spec, fn);
  }
}

StateUsage ReduceEngine::usage() const {
  StateUsage u;
  if (!sketch_) {
    u.entries = words_.size() + exact_.size();
    u.bytes = words_.memory_bytes() + word_aggs_.capacity() * sizeof(std::uint64_t) +
              exact_.memory_bytes();
    return u;
  }
  u.entries = sketch_->entries();
  u.bytes = sketch_->bytes();
  u.error_bound = sketch_->eps() * static_cast<double>(sketch_->total_weight());
  return u;
}

}  // namespace sonata::state
