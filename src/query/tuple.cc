#include "query/tuple.h"

namespace sonata::query {

std::optional<std::size_t> Schema::index_of(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) return i;
  }
  return std::nullopt;
}

int Schema::total_bits() const noexcept {
  int bits = 0;
  for (const auto& c : cols_) bits += c.bits;
  return bits;
}

std::string Schema::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    if (i) out += ", ";
    out += cols_[i].name;
  }
  out += ")";
  return out;
}

std::string Tuple::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += values[i].to_string();
  }
  out += ")";
  return out;
}

Tuple project(const Tuple& t, std::span<const std::size_t> idxs) {
  Tuple out;
  out.values.reserve(idxs.size());
  for (std::size_t i : idxs) out.values.push_back(t.at(i));
  return out;
}

namespace {

// True when the tuple can take the lane path: every value numeric.
bool all_uint(const Tuple& t) noexcept {
  for (const Value& v : t.values) {
    if (!v.is_uint()) return false;
  }
  return true;
}

}  // namespace

void hash_tuples(std::span<const Tuple> tuples, std::uint64_t* out) noexcept {
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  while (i < tuples.size()) {
    // Grow a lane group: consecutive tuples of equal arity, all-uint.
    const std::size_t arity = tuples[i].size();
    std::size_t g = 0;
    while (g < kLanes && i + g < tuples.size() && tuples[i + g].size() == arity &&
           all_uint(tuples[i + g])) {
      ++g;
    }
    if (g < 2 || arity == 0) {
      // Strings, empty rows, or a lone tuple: scalar hash, move on.
      out[i] = tuples[i].hash();
      ++i;
      continue;
    }
    std::uint64_t h[kLanes];
    std::uint64_t col[kLanes];
    std::uint64_t vh[kLanes];
    for (std::size_t l = 0; l < g; ++l) h[l] = kTupleHashSeed;
    for (std::size_t c = 0; c < arity; ++c) {
      for (std::size_t l = 0; l < g; ++l) col[l] = tuples[i + l].values[c].as_uint();
      // Value::hash for numerics is hash_u64(u, 0); then the combine chain.
      util::hash_u64_batch(col, g, 0, vh);
      util::hash_combine_batch(h, vh, g);
    }
    for (std::size_t l = 0; l < g; ++l) out[i + l] = h[l];
    i += g;
  }
}

}  // namespace sonata::query
