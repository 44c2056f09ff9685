#include "util/hash.h"

#include <cassert>

namespace sonata::util {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) noexcept {
  return fnv1a64(std::as_bytes(std::span{s.data(), s.size()}), seed);
}

HashFamily::HashFamily(std::size_t count, std::uint64_t base_seed) : seeds_size_(count) {
  assert(count >= 1 && count <= kMaxFamily);
  std::uint64_t s = base_seed;
  for (std::size_t i = 0; i < count; ++i) {
    s = mix64(s + 0x9e3779b97f4a7c15ULL);
    seeds_[i] = s;
  }
}

}  // namespace sonata::util
