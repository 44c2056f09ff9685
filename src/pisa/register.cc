#include "pisa/register.h"

#include <algorithm>
#include <cassert>
#include <cstring>


namespace sonata::pisa {

namespace {

constexpr std::size_t kNpos = ~std::size_t{0};

}  // namespace

std::uint64_t apply_reduce(query::ReduceFn fn, std::uint64_t current,
                           std::uint64_t delta) noexcept {
  return state::apply_reduce(fn, current, delta);
}

RegisterChain::RegisterChain(const RegisterChainConfig& cfg)
    : cfg_(cfg),
      hashes_(static_cast<std::size_t>(std::max(cfg.depth, 1)),
              cfg.hash_seed != 0 ? cfg.hash_seed : 0x5eed5eed5eed5eedULL),
      mod_(std::max<std::size_t>(cfg.entries_per_register, 1)) {
  assert(cfg_.entries_per_register > 0);
  assert(cfg_.depth >= 1);
  if (cfg_.hashpipe) {
    hp_ = std::make_unique<state::HashPipeChain>(state::HashPipeConfig{
        .entries_per_stage = cfg_.entries_per_register,
        .stages = cfg_.depth,
        .hash_seed = cfg_.hash_seed,
    });
    return;
  }
  key_words_ = cfg_.key_kinds.size();
  stride_ = key_words_ + 1;
  for (std::size_t c = 0; c < key_words_; ++c) {
    if (cfg_.key_kinds[c] == query::ValueKind::kString) string_cols_.push_back(c);
  }
  const std::size_t slots = static_cast<std::size_t>(cfg_.depth) * cfg_.entries_per_register;
  slots_.resize(slots * stride_);
  if (!string_cols_.empty()) strings_.resize(slots * string_cols_.size());
  occ_.resize(static_cast<std::size_t>(cfg_.depth) * occ_words_per_register());
  rep_.resize(occ_.size());
}

bool RegisterChain::same_key(std::size_t s, const std::uint64_t* key,
                             const query::Value* const* strings) const noexcept {
  const std::uint64_t* w = slot(s);
  for (std::size_t c = 0; c < key_words_; ++c) {
    if (w[c] != key[c]) return false;
  }
  // Equal words: numbers are equal; strings have equal hashes and must
  // still compare equal byte for byte.
  const std::size_t ns = string_cols_.size();
  for (std::size_t j = 0; j < ns; ++j) {
    if (strings_[s * ns + j] != *strings[j]) return false;
  }
  return true;
}

namespace {

// A Tuple key as packed words plus pointers to its string values. Keys of
// up to kInline columns (every catalog key) stay on the stack.
class LoweredKey {
 public:
  LoweredKey(const query::Tuple& key, const std::vector<query::ValueKind>& kinds) {
    assert(key.size() == kinds.size());
    if (kinds.size() > kInline) {
      heap_words_.resize(kinds.size());
      heap_strings_.resize(kinds.size());
      words_ = heap_words_.data();
      strings_ = heap_strings_.data();
    }
    std::size_t j = 0;
    for (std::size_t c = 0; c < kinds.size(); ++c) {
      const query::Value& v = key.values[c];
      if (kinds[c] == query::ValueKind::kString) {
        words_[c] = v.hash();
        strings_[j++] = &v;
      } else {
        words_[c] = v.as_uint();
      }
    }
  }
  LoweredKey(const LoweredKey&) = delete;
  LoweredKey& operator=(const LoweredKey&) = delete;

  [[nodiscard]] const std::uint64_t* words() const noexcept { return words_; }
  [[nodiscard]] const query::Value* const* strings() const noexcept { return strings_; }

 private:
  static constexpr std::size_t kInline = 16;
  std::uint64_t inline_words_[kInline];
  const query::Value* inline_strings_[kInline];
  std::vector<std::uint64_t> heap_words_;
  std::vector<const query::Value*> heap_strings_;
  std::uint64_t* words_ = inline_words_;
  const query::Value** strings_ = inline_strings_;
};

}  // namespace

RegisterChain::UpdateResult RegisterChain::update(const query::Tuple& key, std::uint64_t delta,
                                                  query::ReduceFn fn) {
  if (hp_) {
    const auto r = hp_->update(key, delta, fn);
    return {.stored = true,
            .newly_inserted = r.newly_inserted,
            .overflow = false,  // hashpipe never overflows; see evicted_weight()
            .probes = r.probes,
            .value = r.value};
  }
  const LoweredKey k(key, cfg_.key_kinds);
  const std::uint64_t fp = key.hash();
  return update_prepared<0>(k.words(), k.strings(), fp, mod_(hashes_(0, fp)), delta, fn, nullptr);
}

std::size_t RegisterChain::find(const query::Tuple& key) const {
  const LoweredKey k(key, cfg_.key_kinds);
  const std::uint64_t fp = key.hash();
  for (std::size_t d = 0; d < static_cast<std::size_t>(cfg_.depth); ++d) {
    const std::size_t idx = mod_(hashes_(d, fp));
    const std::size_t s = slot_index(d, idx);
    const bool occupied = (occ_[d * occ_words_per_register() + idx / 64] >> (idx % 64)) & 1;
    if (occupied && same_key(s, k.words(), k.strings())) return s;
  }
  return kNpos;
}

std::optional<std::uint64_t> RegisterChain::read(const query::Tuple& key) const {
  // HashPipe note: read/mark_reported need the reduce fn to merge a key
  // split across stages; sum is the fold every switch-compiled reduce and
  // distinct register uses at this boundary's call sites (value_bits=1
  // distinct slots hold 1s, so sum == presence).
  if (hp_) return hp_->read(key, query::ReduceFn::kSum);
  const std::size_t s = find(key);
  if (s == kNpos) return std::nullopt;
  return slot(s)[key_words_];
}

bool RegisterChain::mark_reported(const query::Tuple& key) {
  if (hp_) return hp_->mark_reported(key);
  const std::size_t s = find(key);
  if (s == kNpos) return false;
  // Slot s is register s / n, index s % n: its bits sit at the same
  // positions as in occ_.
  const std::size_t n = cfg_.entries_per_register;
  std::uint64_t& word = rep_[(s / n) * occ_words_per_register() + (s % n) / 64];
  const std::uint64_t bit = std::uint64_t{1} << ((s % n) % 64);
  const bool first = (word & bit) == 0;
  word |= bit;
  return first;
}

void PolledBlock::configure(std::span<const query::ValueKind> kinds) {
  clear();
  string_col_.resize(kinds.size());
  string_count_ = 0;
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    string_col_[c] = kinds[c] == query::ValueKind::kString ? 1 : 0;
    string_count_ += string_col_[c];
  }
}

bool PolledBlock::append(const query::Tuple& key, std::uint64_t value) {
  const std::size_t width = this->width();
  if (key.size() != width) return false;
  for (std::size_t c = 0; c < width; ++c) {
    if (key.values[c].is_string() != is_string(c)) return false;
  }
  for (std::size_t c = 0; c < width; ++c) {
    const query::Value& v = key.values[c];
    if (is_string(c)) {
      words_.push_back(v.hash());
      strings_.push_back(v);
    } else {
      words_.push_back(v.as_uint());
    }
  }
  hashes_.push_back(key.hash());
  values_.push_back(value);
  return true;
}

query::Tuple PolledBlock::key_tuple(std::size_t i) const {
  const std::uint64_t* w = key(i);
  const query::Value* s = strings(i);
  query::Tuple t;
  t.values.reserve(width());
  for (std::size_t c = 0; c < width(); ++c) {
    if (is_string(c)) {
      t.values.push_back(*s++);
    } else {
      t.values.emplace_back(w[c]);
    }
  }
  return t;
}

void RegisterChain::poll_into(PolledBlock& out) const {
  out.configure(cfg_.key_kinds);
  if (hp_) {
    for (const auto& [key, value] : hp_->entries()) {
      [[maybe_unused]] const bool packed = out.append(key, value);
      assert(packed && "HashPipe key does not match the chain's key kinds");
    }
    return;
  }
  // Walk the occupancy bitmap into a slot list first, then copy the slots
  // with the next few in flight: the copy loop no longer waits on each
  // slot's cache miss in turn.
  std::vector<std::uint32_t>& polled = out.polled_;
  polled.clear();
  for_each_occupied([&](std::size_t s) { polled.push_back(static_cast<std::uint32_t>(s)); });
  const std::size_t n = polled.size();
  const std::size_t width = key_words_;
  const std::size_t ns = string_cols_.size();
  out.words_.resize(n * width);
  out.hashes_.resize(n);
  out.values_.resize(n);
  out.strings_.resize(n * ns);
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) __builtin_prefetch(slot(polled[i + kAhead]));
    const std::size_t s = polled[i];
    const std::uint64_t* w = slot(s);
    std::uint64_t* key = out.words_.data() + i * width;
    // Tuple::hash() folded from the words, as the switch kernel folds it:
    // Value::hash() is hash_u64(w, 0) for a number, the word for a string.
    std::uint64_t h = query::kTupleHashSeed;
    for (std::size_t c = 0; c < width; ++c) {
      key[c] = w[c];
      h = util::hash_combine(h, out.is_string(c) ? w[c] : util::hash_u64(w[c], 0));
    }
    out.hashes_[i] = h;
    out.values_[i] = w[width];
    for (std::size_t j = 0; j < ns; ++j) out.strings_[i * ns + j] = strings_[s * ns + j];
  }
}

std::vector<std::pair<query::Tuple, std::uint64_t>> RegisterChain::entries() const {
  PolledBlock block;
  poll_into(block);
  std::vector<std::pair<query::Tuple, std::uint64_t>> out;
  out.reserve(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) out.emplace_back(block.key_tuple(i), block.value(i));
  return out;
}

void RegisterChain::reset() {
  if (hp_) {
    hp_->reset();
    return;
  }
  // Key words and aggregates are overwritten by the next insert, so a reset
  // clears the two bitmaps (one bit per slot) and releases any strings the
  // window's keys held.
  const std::size_t ns = string_cols_.size();
  if (ns != 0) {
    for_each_occupied([&](std::size_t s) {
      for (std::size_t j = 0; j < ns; ++j) strings_[s * ns + j] = query::Value{};
    });
  }
  if (!occ_.empty()) {
    std::memset(occ_.data(), 0, occ_.size() * sizeof(std::uint64_t));
    std::memset(rep_.data(), 0, rep_.size() * sizeof(std::uint64_t));
  }
  stored_ = 0;
  overflows_ = 0;
}

std::uint64_t RegisterChain::total_bits() const noexcept {
  return static_cast<std::uint64_t>(cfg_.depth) * bits_per_register();
}

std::uint64_t RegisterChain::bits_per_register() const noexcept {
  return static_cast<std::uint64_t>(cfg_.entries_per_register) *
         static_cast<std::uint64_t>(cfg_.key_bits + cfg_.value_bits);
}

}  // namespace sonata::pisa
