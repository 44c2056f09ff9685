// The one big-endian byte codec. Every wire format in the tree writes and
// reads through it: the report and tuple codec (runtime/report), the
// distributed protocol's payloads (runtime/distributed), the transport's
// frame headers (net/transport/frame), and the packet and DNS serializers
// (net/wire, net/dns).
//
// Writers append to a byte vector. ByteReader is bounds-checked: a read
// past the end returns 0 (or an empty span/string), clears ok(), and makes
// every later read fail too, so a decoder can read a whole header and
// check ok() once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sonata::util {

namespace detail {

template <typename T>
inline void put_be(std::vector<std::byte>& out, T v) {
  std::byte b[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b[i] = static_cast<std::byte>(v >> (8 * (sizeof(T) - 1 - i)));
  }
  out.insert(out.end(), b, b + sizeof(T));
}

}  // namespace detail

inline void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}
inline void put_u16(std::vector<std::byte>& out, std::uint16_t v) { detail::put_be(out, v); }
inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) { detail::put_be(out, v); }
inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) { detail::put_be(out, v); }

// Overwrite the u32 at out[pos, pos + 4): a count written as a placeholder
// and patched once it is known.
inline void patch_u32(std::vector<std::byte>& out, std::size_t pos, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) out[pos + i] = static_cast<std::byte>(v >> (24 - 8 * i));
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  // No read has run past the end.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  // Every byte was read, and no read ran past the end.
  [[nodiscard]] bool done() const noexcept { return ok_ && pos_ == data_.size(); }

  std::uint8_t u8() noexcept { return be<std::uint8_t>(); }
  std::uint16_t u16() noexcept { return be<std::uint16_t>(); }
  std::uint32_t u32() noexcept { return be<std::uint32_t>(); }
  std::uint64_t u64() noexcept { return be<std::uint64_t>(); }

  // The next `n` bytes, viewed in place.
  std::span<const std::byte> bytes(std::size_t n) noexcept {
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }
  std::string str(std::size_t n) {
    const auto b = bytes(n);
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  void skip(std::size_t n) noexcept { (void)take(n); }

 private:
  // Advance over `n` bytes; false (and stuck at the end) when fewer remain.
  bool take(std::size_t n) noexcept {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      pos_ = data_.size();
      return false;
    }
    pos_ += n;
    return true;
  }

  template <typename T>
  T be() noexcept {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = pos_ - sizeof(T); i < pos_; ++i) {
      v = static_cast<T>((v << 8) | std::to_integer<T>(data_[i]));
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sonata::util
