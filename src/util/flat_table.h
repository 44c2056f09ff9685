// Flat open-addressing keyed state for the stream processor.
//
// Every SP-side keyed structure — reduce maps, distinct sets, filter-in
// tables, hash-join builds — used to sit on node-based std::unordered_map:
// one heap allocation per key, the tuple hash recomputed on every probe,
// and the bucket array torn down and regrown every window. This table is
// the flat replacement, shaped like the d-way RegisterChain on the switch
// side (pisa/register.h): keyed telemetry state wants contiguous,
// cache-resident, allocation-free storage.
//
// Layout. Entries live in one dense vector in INSERTION ORDER; the index
// over them is a power-of-two slot array split into 8-slot chunks, each
// chunk described by 8 one-byte control words (h2 = low 7 hash bits, or
// empty/tombstone). A probe loads a chunk's control bytes as one u64 and
// SWAR-matches all 8 at once; candidates then compare the cached 64-bit
// hash before ever touching the key, so full Tuple equality runs ~once per
// successful lookup. Chunks are probed in a triangular sequence, which
// visits every chunk exactly once when the chunk count is a power of two.
//
// Windows. State here is per-window by construction: clear() wipes the
// control bytes and the dense array but keeps both capacities, so a warm
// table absorbs an entire window with ZERO allocations. Rehashes rebuild
// only the index — the dense entries never move.
//
// Determinism. Drain order is the dense array's insertion order, which the
// deterministic window-barrier merge makes identical across batch sizes
// and thread counts — window outputs stay bit-identical regardless of
// probe-order or capacity differences (DESIGN.md "Keyed-state engines").
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "query/tuple.h"
#include "util/arena.h"

namespace sonata::util {

namespace flat_detail {

inline constexpr std::uint8_t kCtrlEmpty = 0x80;    // never stored by full slots
inline constexpr std::uint8_t kCtrlDeleted = 0xFE;  // tombstone
inline constexpr std::uint64_t kLsb = 0x0101010101010101ULL;
inline constexpr std::uint64_t kMsb = 0x8080808080808080ULL;

[[nodiscard]] inline std::uint64_t load_chunk(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Bitmask with 0x80 set in every lane whose byte equals `b` (exact: the
// zero-byte detector has no false positives for the control alphabet).
[[nodiscard]] inline std::uint64_t match_byte(std::uint64_t chunk, std::uint8_t b) noexcept {
  const std::uint64_t x = chunk ^ (kLsb * b);
  return (x - kLsb) & ~x & kMsb;
}

// Lane index of the lowest set match bit. Lane order follows byte order in
// memory on little-endian targets (everything we build for); a big-endian
// port would walk bytes scalar instead.
static_assert(std::endian::native == std::endian::little,
              "flat_table SWAR probing assumes little-endian control loads");
[[nodiscard]] inline std::size_t first_lane(std::uint64_t mask) noexcept {
  return static_cast<std::size_t>(std::countr_zero(mask)) / 8;
}

[[nodiscard]] inline std::size_t ceil_pow2(std::size_t n) noexcept {
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace flat_detail

// Open-addressing hash table over query::Tuple keys carrying a payload V.
// Single-writer, like every per-window structure on the SP side.
template <typename V>
class FlatTable {
 public:
  static constexpr std::size_t kChunk = 8;         // slots per control chunk
  static constexpr std::size_t kMinCapacity = 16;  // two chunks
  // Probe-length tally: index = chunks examined, clamped to kProbeTallyMax.
  static constexpr std::size_t kProbeTallyMax = 8;

  struct Entry {
    std::uint64_t hash = 0;
    query::Tuple key;
    [[no_unique_address]] V value{};
  };

  FlatTable() = default;
  FlatTable(FlatTable&&) noexcept = default;
  FlatTable& operator=(FlatTable&&) noexcept = default;
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  // Heap footprint of the table's arrays (control bytes, slot indices,
  // dense entries). Exact keyed-state memory grows with capacity; the obs
  // layer reports this next to the sketch engines' fixed byte counts.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return ctrl_.capacity() * sizeof(std::uint8_t) +
           slot_.capacity() * sizeof(std::uint32_t) + entries_.capacity() * sizeof(Entry);
  }
  [[nodiscard]] double load_factor() const noexcept {
    return cap_ == 0 ? 0.0
                     : static_cast<double>(entries_.size()) / static_cast<double>(cap_);
  }

  // Dense entries in insertion order — the deterministic drain. Callers may
  // move keys/values out of mutable entries immediately before clear().
  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }
  [[nodiscard]] std::span<Entry> entries() noexcept { return entries_; }

  // Forget every entry but keep the slot array and the dense array's
  // capacity: the next window's inserts touch no allocator.
  void clear() noexcept {
    entries_.clear();
    if (cap_ != 0) std::memset(ctrl_.data(), flat_detail::kCtrlEmpty, cap_);
    occupied_ = 0;
  }

  // Pre-size for `n` keys without intermediate rehashes.
  void reserve(std::size_t n) {
    if (n == 0) return;
    const std::size_t want = required_capacity(n);
    if (want > cap_) rebuild(want);
    entries_.reserve(n);
  }

  [[nodiscard]] V* find(const query::Tuple& key, std::uint64_t hash) noexcept {
    const std::size_t idx = find_index(key, hash);
    return idx == kNone ? nullptr : &entries_[idx].value;
  }
  [[nodiscard]] const V* find(const query::Tuple& key, std::uint64_t hash) const noexcept {
    const std::size_t idx = find_index(key, hash);
    return idx == kNone ? nullptr : &entries_[idx].value;
  }
  [[nodiscard]] bool contains(const query::Tuple& key, std::uint64_t hash) const noexcept {
    return find_index(key, hash) != kNone;
  }

  // Insert (key, value) if absent. Returns {payload slot, inserted}. The
  // key is only moved from on actual insertion.
  std::pair<V*, bool> try_emplace(query::Tuple&& key, std::uint64_t hash, V value) {
    const auto [idx, inserted] = insert_slot(key, hash);
    if (inserted) {
      entries_.push_back(Entry{hash, std::move(key), std::move(value)});
    }
    return {&entries_[idx == kAppend ? entries_.size() - 1 : idx].value, inserted};
  }

  // Copying variant: copies the key only when it is actually new.
  std::pair<V*, bool> try_emplace(const query::Tuple& key, std::uint64_t hash, V value) {
    const auto [idx, inserted] = insert_slot(key, hash);
    if (inserted) {
      entries_.push_back(Entry{hash, key, std::move(value)});
    }
    return {&entries_[idx == kAppend ? entries_.size() - 1 : idx].value, inserted};
  }

  // Remove a key. Keeps the dense array gap-free by moving the last entry
  // into the vacated position (drain order of remaining entries is still
  // deterministic; per-window state never erases, only tests do).
  bool erase(const query::Tuple& key, std::uint64_t hash) {
    const std::size_t slot = find_ctrl_slot(key, hash);
    if (slot == kNone) return false;
    const std::uint32_t idx = slot_[slot];
    ctrl_[slot] = flat_detail::kCtrlDeleted;  // occupied_ unchanged: tombstone
    const std::uint32_t last = static_cast<std::uint32_t>(entries_.size()) - 1;
    if (idx != last) {
      const std::size_t moved_slot = find_ctrl_slot(entries_[last].key, entries_[last].hash);
      assert(moved_slot != kNone && slot_[moved_slot] == last);
      entries_[idx] = std::move(entries_[last]);
      slot_[moved_slot] = idx;
    }
    entries_.pop_back();
    return true;
  }

  // Probe-length tally (chunks examined per keyed operation), drained by
  // the owner when it publishes window metrics; draining zeroes the tally.
  [[nodiscard]] std::span<const std::uint64_t> probe_tally() const noexcept {
    return {probe_tally_ + 1, kProbeTallyMax};
  }
  void drain_probe_tally(std::uint64_t out[kProbeTallyMax + 1]) noexcept {
    for (std::size_t i = 0; i <= kProbeTallyMax; ++i) {
      out[i] = probe_tally_[i];
      probe_tally_[i] = 0;
    }
  }

  [[nodiscard]] std::uint64_t rehashes() const noexcept { return rehashes_; }

  // Software-prefetch the first probe chunk for `hash`. Callers that know
  // the next few keys ahead of time (batched ingest with precomputed tuple
  // hashes) overlap the index's cache miss with current work instead of
  // stalling on it inside find/insert.
  void prefetch(std::uint64_t hash) const noexcept {
    if (cap_ == 0) return;
    const std::size_t base = ((hash >> 7) & (num_chunks() - 1)) * kChunk;
    __builtin_prefetch(ctrl_.data() + base);
    __builtin_prefetch(slot_.data() + base);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kAppend = static_cast<std::size_t>(-2);

  [[nodiscard]] static std::size_t required_capacity(std::size_t n) noexcept {
    // Keep occupancy (full + tombstones) at or below 7/8.
    std::size_t cap = flat_detail::ceil_pow2(n + n / 7 + 1);
    return cap < kMinCapacity ? kMinCapacity : cap;
  }

  [[nodiscard]] std::size_t num_chunks() const noexcept { return cap_ / kChunk; }

  void tally(std::size_t chunks_probed) const noexcept {
    ++probe_tally_[chunks_probed < kProbeTallyMax ? chunks_probed : kProbeTallyMax];
  }

  // Dense-entry index for a present key, kNone otherwise.
  [[nodiscard]] std::size_t find_index(const query::Tuple& key, std::uint64_t hash) const noexcept {
    const std::size_t slot = find_ctrl_slot(key, hash);
    return slot == kNone ? kNone : slot_[slot];
  }

  // Slot-array position of a present key, kNone otherwise.
  [[nodiscard]] std::size_t find_ctrl_slot(const query::Tuple& key,
                                           std::uint64_t hash) const noexcept {
    if (cap_ == 0) {
      tally(1);
      return kNone;
    }
    const std::uint8_t h2 = static_cast<std::uint8_t>(hash & 0x7F);
    const std::size_t chunk_mask = num_chunks() - 1;
    std::size_t chunk = (hash >> 7) & chunk_mask;
    for (std::size_t i = 0;; ++i) {
      const std::size_t base = chunk * kChunk;
      const std::uint64_t group = flat_detail::load_chunk(ctrl_.data() + base);
      // Issue the next triangular chunk's control load now: by the time the
      // SWAR match and key compares below miss, its line is in flight.
      __builtin_prefetch(ctrl_.data() + (((chunk + i + 1) & chunk_mask) * kChunk));
      std::uint64_t match = flat_detail::match_byte(group, h2);
      while (match != 0) {
        const std::size_t lane = flat_detail::first_lane(match);
        const Entry& e = entries_[slot_[base + lane]];
        if (e.hash == hash && e.key == key) {
          tally(i + 1);
          return base + lane;
        }
        match &= match - 1;
      }
      if (flat_detail::match_byte(group, flat_detail::kCtrlEmpty) != 0) {
        tally(i + 1);
        return kNone;  // an empty slot terminates the probe chain
      }
      chunk = (chunk + i + 1) & chunk_mask;  // triangular: +1, +2, +3, ...
    }
  }

  // Find-or-claim: returns {dense index or kAppend, inserted}. On insert
  // the caller must push_back the entry; the claimed slot already points at
  // entries_.size().
  std::pair<std::size_t, bool> insert_slot(const query::Tuple& key, std::uint64_t hash) {
    if (cap_ == 0) rebuild(kMinCapacity);
    const std::uint8_t h2 = static_cast<std::uint8_t>(hash & 0x7F);
    const std::size_t chunk_mask = num_chunks() - 1;
    std::size_t chunk = (hash >> 7) & chunk_mask;
    std::size_t reuse = kNone;  // first tombstone on the probe path
    for (std::size_t i = 0;; ++i) {
      const std::size_t base = chunk * kChunk;
      const std::uint64_t group = flat_detail::load_chunk(ctrl_.data() + base);
      __builtin_prefetch(ctrl_.data() + (((chunk + i + 1) & chunk_mask) * kChunk));
      std::uint64_t match = flat_detail::match_byte(group, h2);
      while (match != 0) {
        const std::size_t lane = flat_detail::first_lane(match);
        const Entry& e = entries_[slot_[base + lane]];
        if (e.hash == hash && e.key == key) {
          tally(i + 1);
          return {slot_[base + lane], false};
        }
        match &= match - 1;
      }
      if (reuse == kNone) {
        const std::uint64_t deleted =
            flat_detail::match_byte(group, flat_detail::kCtrlDeleted);
        if (deleted != 0) reuse = base + flat_detail::first_lane(deleted);
      }
      const std::uint64_t empty = flat_detail::match_byte(group, flat_detail::kCtrlEmpty);
      if (empty != 0) {
        tally(i + 1);
        std::size_t target;
        if (reuse != kNone) {
          target = reuse;  // tombstone reuse: occupancy unchanged
        } else {
          if (occupied_ + 1 > cap_ - cap_ / 8) {
            rebuild(required_capacity(entries_.size() + 1));
            return insert_slot(key, hash);  // fresh index, no tombstones
          }
          target = base + flat_detail::first_lane(empty);
          ++occupied_;
        }
        ctrl_[target] = h2;
        slot_[target] = static_cast<std::uint32_t>(entries_.size());
        return {kAppend, true};
      }
      chunk = (chunk + i + 1) & chunk_mask;
    }
  }

  // Rebuild the index at `new_cap` slots from the dense array. Entries do
  // not move; only ctrl_/slot_ are rewritten.
  void rebuild(std::size_t new_cap) {
    assert(std::has_single_bit(new_cap) && new_cap >= kMinCapacity);
    if (new_cap != cap_) {
      ctrl_.assign(new_cap, flat_detail::kCtrlEmpty);
      slot_.resize(new_cap);
      cap_ = new_cap;
    } else {
      std::memset(ctrl_.data(), flat_detail::kCtrlEmpty, cap_);
    }
    if (cap_ != 0) ++rehashes_;
    occupied_ = entries_.size();
    const std::size_t chunk_mask = num_chunks() - 1;
    for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
      const std::uint64_t hash = entries_[idx].hash;
      std::size_t chunk = (hash >> 7) & chunk_mask;
      for (std::size_t i = 0;; ++i) {
        const std::size_t base = chunk * kChunk;
        const std::uint64_t group = flat_detail::load_chunk(ctrl_.data() + base);
        const std::uint64_t empty = flat_detail::match_byte(group, flat_detail::kCtrlEmpty);
        if (empty != 0) {
          const std::size_t target = base + flat_detail::first_lane(empty);
          ctrl_[target] = static_cast<std::uint8_t>(hash & 0x7F);
          slot_[target] = idx;
          break;
        }
        chunk = (chunk + i + 1) & chunk_mask;
      }
    }
  }

  // The index arrays sit in page-aligned arena buffers (huge-page advised
  // once large): they are the per-probe random-access working set, and
  // fewer TLB entries is a direct hot-path win.
  PageBuffer<std::uint8_t> ctrl_;     // cap_ control bytes, chunk-aligned
  PageBuffer<std::uint32_t> slot_;    // cap_ dense-entry indices
  std::vector<Entry> entries_;        // insertion order
  std::size_t cap_ = 0;               // power of two, multiple of kChunk
  std::size_t occupied_ = 0;          // full + tombstoned slots
  std::uint64_t rehashes_ = 0;
  mutable std::uint64_t probe_tally_[kProbeTallyMax + 1] = {};
};

// Map façade: Tuple -> V.
template <typename V>
using FlatMap = FlatTable<V>;

// Set façade over the same core (payload-free entries).
class FlatSet {
 public:
  struct Unit {};
  using Table = FlatTable<Unit>;

  [[nodiscard]] std::size_t size() const noexcept { return t_.size(); }
  [[nodiscard]] bool empty() const noexcept { return t_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return t_.capacity(); }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept { return t_.memory_bytes(); }
  [[nodiscard]] double load_factor() const noexcept { return t_.load_factor(); }
  void clear() noexcept { t_.clear(); }
  void reserve(std::size_t n) { t_.reserve(n); }

  bool insert(query::Tuple&& key, std::uint64_t hash) {
    return t_.try_emplace(std::move(key), hash, Unit{}).second;
  }
  bool insert(const query::Tuple& key, std::uint64_t hash) {
    return t_.try_emplace(key, hash, Unit{}).second;
  }
  bool insert(query::Tuple&& key) {
    const std::uint64_t h = key.hash();
    return insert(std::move(key), h);
  }
  bool insert(const query::Tuple& key) { return insert(key, key.hash()); }

  [[nodiscard]] bool contains(const query::Tuple& key, std::uint64_t hash) const noexcept {
    return t_.contains(key, hash);
  }
  [[nodiscard]] bool contains(const query::Tuple& key) const noexcept {
    return t_.contains(key, key.hash());
  }
  bool erase(const query::Tuple& key, std::uint64_t hash) { return t_.erase(key, hash); }

  [[nodiscard]] std::span<const Table::Entry> entries() const noexcept { return t_.entries(); }
  [[nodiscard]] Table& table() noexcept { return t_; }
  [[nodiscard]] const Table& table() const noexcept { return t_; }

 private:
  Table t_;
};

// Set of fixed-arity keys of 64-bit words: the switch's dynamic-filter
// (filter_in) tables, whose entries the data path matches against word
// columns, and the window merge's fold of polled register keys. Entries
// live densely in insertion order; the index is a power-of-two
// linear-probe array of dense positions, kept at most half full. The
// caller supplies each key's hash, and a `same(dense index)` predicate
// that decides equality once the words match, so keys that are equal as
// words but not as values (a string column stores only its hash) are kept
// apart.
class FlatWordSet {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  explicit FlatWordSet(std::size_t arity = 1) : arity_(arity) {}

  [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return hashes_.empty(); }
  [[nodiscard]] std::size_t arity() const noexcept { return arity_; }
  // Heap footprint of the key words, hashes and index.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return (words_.capacity() + hashes_.capacity()) * sizeof(std::uint64_t) +
           index_.capacity() * sizeof(std::uint32_t);
  }

  // Forget every entry, keeping the capacity. A set far below its index
  // size (one reused for differently sized key sets) unlinks its entries
  // one by one instead of wiping the whole index.
  void clear() noexcept {
    if (hashes_.size() * 8 < index_.size()) {
      const std::size_t mask = index_.size() - 1;
      for (std::size_t e = 0; e < hashes_.size(); ++e) {
        std::size_t i = hashes_[e] & mask;
        while (index_[i] != e + 1) i = (i + 1) & mask;
        index_[i] = 0;
      }
    } else {
      std::fill(index_.begin(), index_.end(), 0);
    }
    words_.clear();
    hashes_.clear();
  }

  // clear() and switch to keys of `arity` words.
  void reset(std::size_t arity) noexcept {
    clear();
    arity_ = arity;
  }

  // Words of the entry at dense position `e` (arity words).
  [[nodiscard]] const std::uint64_t* key(std::size_t e) const noexcept {
    return words_.data() + e * arity_;
  }
  // Hashes of every entry, by dense position.
  [[nodiscard]] std::span<const std::uint64_t> hashes() const noexcept { return hashes_; }

  // Software-prefetch the index slot a probe for `hash` starts at.
  void prefetch(std::uint64_t hash) const noexcept {
    if (!index_.empty()) __builtin_prefetch(index_.data() + (hash & (index_.size() - 1)));
  }

  // Dense position of the entry equal to `key`, or npos.
  template <typename Same>
  [[nodiscard]] std::size_t find(const std::uint64_t* key, std::uint64_t hash,
                                 Same&& same) const {
    if (index_.empty()) return npos;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint32_t e = index_[i];
      if (e == 0) return npos;
      if (hashes_[e - 1] == hash && equal_words(e - 1, key) && same(e - 1)) return e - 1;
    }
  }

  // Insert unless present; returns {dense position, inserted}. One probe:
  // a new key takes the empty slot that ended its search.
  template <typename Same>
  std::pair<std::size_t, bool> insert(const std::uint64_t* key, std::uint64_t hash,
                                      Same&& same) {
    if ((hashes_.size() + 1) * 2 > index_.size()) grow();
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint32_t e = index_[i];
      if (e == 0) {
        const std::size_t at = hashes_.size();
        hashes_.push_back(hash);
        words_.insert(words_.end(), key, key + arity_);
        index_[i] = static_cast<std::uint32_t>(at + 1);
        return {at, true};
      }
      if (hashes_[e - 1] == hash && equal_words(e - 1, key) && same(e - 1)) return {e - 1, false};
    }
  }

 private:
  [[nodiscard]] bool equal_words(std::size_t e, const std::uint64_t* key) const noexcept {
    const std::uint64_t* w = words_.data() + e * arity_;
    for (std::size_t c = 0; c < arity_; ++c) {
      if (w[c] != key[c]) return false;
    }
    return true;
  }

  void place(std::size_t e) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = hashes_[e] & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(e + 1);
  }

  void grow() {
    index_.assign(std::max<std::size_t>(16, index_.size() * 2), 0);
    for (std::size_t e = 0; e < hashes_.size(); ++e) place(e);
  }

  std::size_t arity_;
  std::vector<std::uint64_t> words_;   // dense keys, arity_ words each
  std::vector<std::uint64_t> hashes_;  // dense
  std::vector<std::uint32_t> index_;   // dense position + 1; 0 = empty
};

}  // namespace sonata::util
