// Stateful register arrays with hash-based indexing and d-way collision
// mitigation (paper §3.1.3).
//
// True hash tables are not available on PISA switches; Sonata uses a
// sequence of up to d register arrays, each indexed by a different hash
// function. Each slot stores the original key (so collisions are detected
// exactly) plus the running aggregate. A key that collides in all d arrays
// overflows: the packet is sent to the stream processor, which adjusts the
// window's results (handled by the runtime).
//
// Slots are packed POD words in one page buffer, the way a PISA register
// stage holds a fixed-width key next to its aggregate: one 64-bit word per
// key column, then the aggregate — 8 * (key columns + 1) bytes per slot.
// Two bitmaps beside them hold each slot's occupied and reported flags, so
// a probe of an empty slot reads only the (cache-resident) bitmap and a
// window reset only clears bitmaps. A numeric key column stores its value;
// a string column (a DNS name) stores the string's Value::hash() and keeps
// the string itself in a side array that is compared whenever the words
// match, so keys stay exact.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "query/ops.h"
#include "query/tuple.h"
#include "state/engine.h"  // state::apply_reduce
#include "state/hashpipe.h"
#include "util/arena.h"
#include "util/hash.h"

namespace sonata::pisa {

// A threshold filter folded into the reduce before it (`value > Th`, or
// `value >= Th` when not strict).
struct FoldedThreshold {
  std::uint64_t threshold = 0;
  bool strict = true;  // true: value > Th, false: value >= Th
};

struct RegisterChainConfig {
  std::size_t entries_per_register = 1024;  // n
  int depth = 1;                            // d
  int key_bits = 32;                        // width of the stored key
  int value_bits = 32;                      // width of the aggregate
  // Base seed of the per-register hash family; 0 keeps the HashFamily
  // default. Settable so fault injection can model an adversarially (or
  // just unluckily) seeded hardware hash (DESIGN.md "Fault model").
  std::uint64_t hash_seed = 0;
  // HashPipe mode (sketched queries): the d arrays become a d-stage
  // heavy-hitter pipeline that never overflows to the SP — stage 1 always
  // inserts, evictions carry down, and weight that falls off the last
  // stage is tracked as an error bound instead of being corrected
  // (state/hashpipe.h). Exact mode is the default.
  bool hashpipe = false;
  // Kind of each key column, in key order; fixes the packed slot layout.
  std::vector<query::ValueKind> key_kinds = {query::ValueKind::kUint};
};

// One register chain's end-of-window poll, packed the way its slots are:
// per entry the key's words (one per key column; a string column holds
// its Value::hash()), the key's Tuple::hash() folded from those words,
// and the aggregate, with the string columns' Values in a side array. The
// window merge folds blocks word-keyed and hands each merged key to the
// stream processor's reduce together with its hash, so a polled key
// becomes a Tuple once, at the reduce, and is never hashed again.
class PolledBlock {
 public:
  // Fix the key layout, one kind per key column; empties the block.
  void configure(std::span<const query::ValueKind> kinds);
  // Drop the entries, keep the layout and the capacity.
  void clear() noexcept {
    words_.clear();
    hashes_.clear();
    values_.clear();
    strings_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] std::size_t width() const noexcept { return string_col_.size(); }
  [[nodiscard]] bool is_string(std::size_t c) const noexcept { return string_col_[c] != 0; }

  [[nodiscard]] const std::uint64_t* key(std::size_t i) const noexcept {
    return words_.data() + i * width();
  }
  [[nodiscard]] std::uint64_t hash(std::size_t i) const noexcept { return hashes_[i]; }
  [[nodiscard]] std::uint64_t value(std::size_t i) const noexcept { return values_[i]; }
  // Entry i's string column Values, in column order.
  [[nodiscard]] query::Value* strings(std::size_t i) noexcept {
    return strings_.data() + i * string_count_;
  }
  [[nodiscard]] const query::Value* strings(std::size_t i) const noexcept {
    return strings_.data() + i * string_count_;
  }

  // Append a key given as a Tuple. Returns false, appending nothing, when
  // the tuple does not have the block's layout (column count and kinds).
  bool append(const query::Tuple& key, std::uint64_t value);

  // Entry i's key as a Tuple.
  [[nodiscard]] query::Tuple key_tuple(std::size_t i) const;

 private:
  friend class RegisterChain;

  std::vector<std::uint8_t> string_col_;  // per key column: 1 = string
  std::size_t string_count_ = 0;
  std::vector<std::uint64_t> words_;   // [entry][key column]
  std::vector<std::uint64_t> hashes_;  // Tuple::hash() of each key
  std::vector<std::uint64_t> values_;  // aggregates
  std::vector<query::Value> strings_;  // [entry][string column]
  std::vector<std::uint32_t> polled_;  // poll scratch: occupied slot indices
};

class RegisterChain {
 public:
  explicit RegisterChain(const RegisterChainConfig& cfg);

  struct UpdateResult {
    bool stored = false;          // found a slot (new or existing)
    bool newly_inserted = false;  // first packet for this key this window
    bool overflow = false;        // collided in all d registers
    bool reported = false;        // update_prepared with a threshold: report flag newly set
    int probes = 0;               // registers examined (collision-chain depth)
    std::uint64_t value = 0;      // aggregate after the update (if stored)
  };

  // First-register slot index of the key whose Tuple::hash() is `fp`
  // (hashes_.index(0, fp, n)), with that slot's lines prefetched: the data
  // path prepares a whole batch of keys, so their slots are in flight
  // before update_prepared probes the first one. Exact mode only.
  [[nodiscard]] std::uint64_t prepare(std::uint64_t fp) const noexcept {
    const std::uint64_t idx = mod_(util::hash_u64(fp, hashes_.seed(0)));
    const std::uint64_t* w = slots_.data() + idx * stride_;
    __builtin_prefetch(w, 1);
    __builtin_prefetch(w + stride_ - 1, 1);
    return idx;
  }

  // The data path's exact-mode update of a prepared key, exactly as
  // update() would fold `delta` into it: `key` holds one word per key
  // column (strings as Value::hash()), `strings` the string columns' Values (null
  // when there are none), `fp` the key's Tuple::hash() and `idx0` its
  // prepare() index. With `report` set, a stored key whose new aggregate
  // passes the threshold sets its slot's reported flag in the same probe,
  // and the result's `reported` says whether the flag was clear. kWidth is
  // fixed_width(): the key width for numeric keys of up to four columns
  // (an unrolled compare), else 0.
  template <std::size_t kWidth>
  UpdateResult update_prepared(const std::uint64_t* key, const query::Value* const* strings,
                               std::uint64_t fp, std::uint64_t idx0, std::uint64_t delta,
                               query::ReduceFn fn, const FoldedThreshold* report);
  [[nodiscard]] std::size_t fixed_width() const noexcept {
    return string_cols_.empty() && key_words_ <= 4 ? key_words_ : 0;
  }

  // Fold `delta` into the aggregate for `key` using `fn`.
  UpdateResult update(const query::Tuple& key, std::uint64_t delta, query::ReduceFn fn);

  // Read the aggregate for a key, if present.
  [[nodiscard]] std::optional<std::uint64_t> read(const query::Tuple& key) const;

  // Set the key's "already reported to the stream processor" flag; returns
  // true when the flag was previously clear (i.e. report now). Used to send
  // exactly one packet per key when the last switch operator is stateful
  // (paper §3.1.3). Returns false if the key is not stored.
  bool mark_reported(const query::Tuple& key);

  // End-of-window poll: every stored (key, aggregate) pair into `out`
  // (configured with this chain's key kinds), register by register in
  // slot order — deterministic. HashPipe stages pack their entries the
  // same way, stage by stage.
  void poll_into(PolledBlock& out) const;

  // poll_into() as (key, aggregate) pairs.
  [[nodiscard]] std::vector<std::pair<query::Tuple, std::uint64_t>> entries() const;

  // Clear all slots (the driver resets registers between windows).
  void reset();

  [[nodiscard]] std::uint64_t keys_stored() const noexcept {
    return hp_ ? hp_->stored() : stored_;
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept { return overflows_; }

  // HashPipe mode accessors (zero in exact mode): weight and key count
  // evicted past the last stage this window — the measured error bound.
  [[nodiscard]] bool sketch() const noexcept { return hp_ != nullptr; }
  [[nodiscard]] std::uint64_t evicted_weight() const noexcept {
    return hp_ ? hp_->evicted_weight() : 0;
  }
  [[nodiscard]] std::uint64_t evicted_keys() const noexcept {
    return hp_ ? hp_->evicted_keys() : 0;
  }

  // Total register memory this chain occupies: d * n * (key + value bits).
  [[nodiscard]] std::uint64_t total_bits() const noexcept;
  // Memory of one register array (what a single stage must provide).
  [[nodiscard]] std::uint64_t bits_per_register() const noexcept;

  // Host bytes of one packed slot (key words, aggregate).
  [[nodiscard]] std::size_t slot_bytes() const noexcept { return stride_ * sizeof(std::uint64_t); }

  [[nodiscard]] const RegisterChainConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] std::size_t slot_index(std::size_t d, std::size_t idx) const noexcept {
    return d * cfg_.entries_per_register + idx;
  }
  [[nodiscard]] std::uint64_t* slot(std::size_t s) noexcept { return slots_.data() + s * stride_; }
  [[nodiscard]] const std::uint64_t* slot(std::size_t s) const noexcept {
    return slots_.data() + s * stride_;
  }
  [[nodiscard]] bool same_key(std::size_t s, const std::uint64_t* key,
                              const query::Value* const* strings) const noexcept;
  // Slot holding `key`, or npos.
  [[nodiscard]] std::size_t find(const query::Tuple& key) const;

  // Bitmap helpers over occ_ (one bit per slot, registers concatenated in
  // depth order). The bitmap makes reset() and poll_into() O(stored keys)
  // instead of O(capacity): both walk only set bits, in the same
  // register-by-register slot-ascending order a full scan would produce.
  [[nodiscard]] std::size_t occ_words_per_register() const noexcept {
    return (cfg_.entries_per_register + 63) / 64;
  }
  template <typename Fn>
  void for_each_occupied(Fn&& fn) const;

  RegisterChainConfig cfg_;
  util::HashFamily hashes_;
  util::FastMod mod_;  // hash -> slot index within a register
  std::size_t key_words_ = 1;              // key columns per slot
  std::size_t stride_ = 2;                 // words per slot: key, aggregate
  std::vector<std::size_t> string_cols_;   // key columns holding strings
  util::PageBuffer<std::uint64_t> slots_;  // [depth][entries] packed slots, exact mode
  std::vector<query::Value> strings_;      // [slot][string column], exact mode
  util::PageBuffer<std::uint64_t> occ_;    // occupancy bitmap, exact mode
  util::PageBuffer<std::uint64_t> rep_;    // reported bitmap, same layout
  std::unique_ptr<state::HashPipeChain> hp_;  // hashpipe mode
  std::uint64_t stored_ = 0;
  std::uint64_t overflows_ = 0;
};

// Apply a reduce function to an existing aggregate.
[[nodiscard]] std::uint64_t apply_reduce(query::ReduceFn fn, std::uint64_t current,
                                         std::uint64_t delta) noexcept;

template <std::size_t kWidth>
RegisterChain::UpdateResult RegisterChain::update_prepared(
    const std::uint64_t* key, const query::Value* const* strings, std::uint64_t fp,
    std::uint64_t idx0, std::uint64_t delta, query::ReduceFn fn, const FoldedThreshold* report) {
  const std::size_t width = kWidth != 0 ? kWidth : key_words_;
  const std::size_t stride = width + 1;
  const std::size_t words = occ_words_per_register();
  const std::size_t depth = static_cast<std::size_t>(cfg_.depth);
  for (std::size_t d = 0; d < depth; ++d) {
    const std::size_t idx = d == 0 ? idx0 : mod_(hashes_(d, fp));
    const std::size_t s = slot_index(d, idx);
    const std::size_t bit_word = d * words + idx / 64;
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    std::uint64_t* w = slots_.data() + s * stride;
    UpdateResult r{.stored = true, .probes = static_cast<int>(d) + 1};
    if ((occ_[bit_word] & bit) == 0) {
      occ_[bit_word] |= bit;
      for (std::size_t c = 0; c < width; ++c) w[c] = key[c];
      w[width] = delta;  // initial value for every reduce fn (incl. min)
      if constexpr (kWidth == 0) {
        const std::size_t ns = string_cols_.size();
        for (std::size_t j = 0; j < ns; ++j) strings_[s * ns + j] = *strings[j];
      }
      ++stored_;
      r.newly_inserted = true;
      r.value = delta;
    } else {
      bool same;
      if constexpr (kWidth == 0) {
        same = same_key(s, key, strings);
      } else {
        same = true;
        for (std::size_t c = 0; c < kWidth; ++c) same &= w[c] == key[c];
      }
      if (!same) continue;  // occupied by a different key: fall through to the next register
      w[width] = state::apply_reduce(fn, w[width], delta);
      r.value = w[width];
    }
    const bool passes = report != nullptr && (report->strict ? r.value > report->threshold
                                                             : r.value >= report->threshold);
    if (passes && (rep_[bit_word] & bit) == 0) {
      rep_[bit_word] |= bit;
      r.reported = true;
    }
    return r;
  }
  ++overflows_;
  return {.overflow = true, .probes = cfg_.depth};
}

template <typename Fn>
void RegisterChain::for_each_occupied(Fn&& fn) const {
  const std::size_t words = occ_words_per_register();
  const std::size_t depth = static_cast<std::size_t>(cfg_.depth);
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = occ_[d * words + w];
      while (bits != 0) {
        const std::size_t idx = w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        fn(slot_index(d, idx));
      }
    }
  }
}

}  // namespace sonata::pisa
