// Hash functions used throughout Sonata.
//
// The PISA register arrays need a *family* of independent hash functions so
// that a key colliding in register i has an independent chance of finding a
// free slot in register i+1 (paper §3.1.3).  HashFamily provides d seeded,
// pairwise-independent-in-practice 64-bit hashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace sonata::util {

// 64-bit FNV-1a over a byte range. Stable across platforms and runs.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::span<const std::byte> data,
                                              std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

// Strong 64-bit finalizer (splitmix64 / murmur3 fmix style). Used to derive
// independent hash functions from a single base hash plus a seed.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Hash a 64-bit key with a given seed; different seeds give (empirically)
// independent functions.
[[nodiscard]] constexpr std::uint64_t hash_u64(std::uint64_t key, std::uint64_t seed) noexcept {
  return mix64(key + 0x9e3779b97f4a7c15ULL * (seed + 1));
}

// A family of `size()` hash functions over 64-bit keys, as required by the
// d-register collision-mitigation chain.
class HashFamily {
 public:
  explicit HashFamily(std::size_t count, std::uint64_t base_seed = 0x5eed5eed5eed5eedULL);

  [[nodiscard]] std::size_t size() const noexcept { return seeds_size_; }

  // Hash `key` with the i-th member of the family.
  [[nodiscard]] std::uint64_t operator()(std::size_t i, std::uint64_t key) const noexcept {
    return hash_u64(key, seeds_[i]);
  }

  // Hash reduced to an index in [0, buckets).
  [[nodiscard]] std::size_t index(std::size_t i, std::uint64_t key, std::size_t buckets) const noexcept {
    return static_cast<std::size_t>((*this)(i, key) % buckets);
  }

  // Seed of the i-th member: (*this)(i, key) == hash_u64(key, seed(i)).
  [[nodiscard]] std::uint64_t seed(std::size_t i) const noexcept { return seeds_[i]; }

  // Upper bound on size().
  static constexpr std::size_t kMaxFamily = 16;

 private:
  std::uint64_t seeds_[kMaxFamily];
  std::size_t seeds_size_;
};

// x % d for a divisor fixed at construction, without a divide: Lemire's
// direct remainder with a 128-bit reciprocal ("Faster Remainder by Direct
// Computation", 2019), exact for every 64-bit x and every d >= 1. Register
// chains index every probe with it; a hardware 64-bit divide costs several
// times as much.
class FastMod {
 public:
  explicit FastMod(std::uint64_t d) noexcept
      : d_(d), m_(~static_cast<unsigned __int128>(0) / d + 1) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept {
    using u128 = unsigned __int128;
    const u128 low = m_ * x;  // the fraction x / d, scaled by 2^128 (mod 2^128)
    // (low * d) >> 128, from two 64x64 -> 128 products.
    const u128 bottom = (static_cast<u128>(static_cast<std::uint64_t>(low)) * d_) >> 64;
    const u128 top = static_cast<u128>(static_cast<std::uint64_t>(low >> 64)) * d_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

 private:
  std::uint64_t d_;
  unsigned __int128 m_;
};

// Combine two hashes (boost-style) for composite keys.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace sonata::util
