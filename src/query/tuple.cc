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

}  // namespace sonata::query
