#include "runtime/report.h"

#include <cassert>
#include <cstring>
#include <string_view>

#include "util/log.h"

namespace sonata::runtime {

namespace {

// Wire limits of the report/tuple codec: the column count travels as a
// u8 and a string value's length as a u16. A value beyond either cannot
// be represented; encoding truncates (so the frame stays decodable) and
// warns, instead of silently writing a length that disagrees with the
// bytes that follow — which the peer would count as a decode failure or,
// for winner keys, abort the switch node on.
constexpr std::size_t kMaxTupleColumns = 255;
constexpr std::size_t kMaxStringBytes = 65535;

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}
void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v >> 8));
  out.push_back(static_cast<std::byte>(v & 0xff));
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::byte>((v >> shift) & 0xff));
  }
}

std::size_t checked_columns(std::size_t n, const char* what) {
  if (n <= kMaxTupleColumns) return n;
  assert(false && "tuple exceeds the codec's u8 column-count limit");
  SONATA_WARN("report", "%s has %zu columns; codec limit is %zu — truncating", what, n,
              kMaxTupleColumns);
  return kMaxTupleColumns;
}

void put_string(std::vector<std::byte>& out, std::string_view s, const char* what) {
  std::size_t n = s.size();
  if (n > kMaxStringBytes) {
    assert(false && "string value exceeds the codec's u16 length limit");
    SONATA_WARN("report", "%s string value is %zu bytes; codec limit is %zu — truncating", what,
                n, kMaxStringBytes);
    n = kMaxStringBytes;
  }
  put_u16(out, static_cast<std::uint16_t>(n));
  for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<std::byte>(s[i]));
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() noexcept {
    if (pos_ + 1 > data_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() noexcept {
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint64_t u64() noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | u8();
    return v;
  }
  std::string str(std::size_t n) noexcept {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::vector<std::byte> encode_report(const pisa::EmitRecord& record) {
  std::vector<std::byte> out;
  out.reserve(24 + record.tuple.size() * 9);
  encode_report_into(record, out);
  return out;
}

void encode_report_into(const pisa::EmitRecord& record, std::vector<std::byte>& out) {
  put_u16(out, kReportMagic);
  put_u8(out, static_cast<std::uint8_t>(record.kind));
  put_u16(out, record.qid);
  put_u8(out, static_cast<std::uint8_t>(record.source_index));
  put_u16(out, static_cast<std::uint16_t>(record.level));
  put_u16(out, static_cast<std::uint16_t>(record.op_index));
  put_u64(out, record.ingest_ns);
  const std::size_t ncols = checked_columns(record.tuple.size(), "EmitRecord tuple");
  put_u8(out, static_cast<std::uint8_t>(ncols));
  for (std::size_t c = 0; c < ncols; ++c) {
    const auto& v = record.tuple.values[c];
    if (v.is_uint()) {
      put_u8(out, 0);
      put_u64(out, v.as_uint());
    } else {
      put_u8(out, 1);
      put_string(out, v.as_string(), "EmitRecord tuple");
    }
  }
}

void encode_tuple(const query::Tuple& tuple, std::vector<std::byte>& out) {
  const std::size_t ncols = checked_columns(tuple.size(), "tuple");
  put_u8(out, static_cast<std::uint8_t>(ncols));
  for (std::size_t c = 0; c < ncols; ++c) {
    const auto& v = tuple.values[c];
    if (v.is_uint()) {
      put_u8(out, 0);
      put_u64(out, v.as_uint());
    } else {
      put_u8(out, 1);
      put_string(out, v.as_string(), "tuple");
    }
  }
}

void encode_polled_key(const pisa::PolledBlock& block, std::size_t i,
                       std::vector<std::byte>& out) {
  const std::size_t ncols = checked_columns(block.width(), "polled key");
  const std::uint64_t* words = block.key(i);
  const query::Value* strings = block.strings(i);
  put_u8(out, static_cast<std::uint8_t>(ncols));
  for (std::size_t c = 0; c < ncols; ++c) {
    if (block.is_string(c)) {
      put_u8(out, 1);
      put_string(out, (strings++)->as_string(), "polled key");
    } else {
      put_u8(out, 0);
      put_u64(out, words[c]);
    }
  }
}

std::optional<query::Tuple> decode_tuple(std::span<const std::byte> data) {
  Reader r(data);
  const std::uint8_t ncols = r.u8();
  if (!r.ok()) return std::nullopt;
  query::Tuple tuple;
  tuple.values.reserve(ncols);
  for (std::uint8_t c = 0; c < ncols; ++c) {
    const std::uint8_t tag = r.u8();
    if (tag == 0) {
      tuple.values.emplace_back(r.u64());
    } else if (tag == 1) {
      const std::uint16_t len = r.u16();
      if (!r.ok()) return std::nullopt;
      tuple.values.emplace_back(query::Value{r.str(len)});
    } else {
      return std::nullopt;
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return tuple;
}

std::optional<pisa::EmitRecord> decode_report(std::span<const std::byte> data) {
  Reader r(data);
  if (r.u16() != kReportMagic) return std::nullopt;
  pisa::EmitRecord record;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(pisa::EmitRecord::Kind::kOverflow)) return std::nullopt;
  record.kind = static_cast<pisa::EmitRecord::Kind>(kind);
  record.qid = r.u16();
  record.source_index = r.u8();
  record.level = static_cast<std::int16_t>(r.u16());
  record.op_index = r.u16();
  record.ingest_ns = r.u64();
  const std::uint8_t ncols = r.u8();
  if (!r.ok()) return std::nullopt;
  record.tuple.values.reserve(ncols);
  for (std::uint8_t c = 0; c < ncols; ++c) {
    const std::uint8_t tag = r.u8();
    if (tag == 0) {
      record.tuple.values.emplace_back(r.u64());
    } else if (tag == 1) {
      const std::uint16_t len = r.u16();
      if (!r.ok()) return std::nullopt;
      record.tuple.values.emplace_back(query::Value{r.str(len)});
    } else {
      return std::nullopt;
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;  // trailing bytes: corrupted report
  return record;
}

}  // namespace sonata::runtime
