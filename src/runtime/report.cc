#include "runtime/report.h"

#include <cassert>
#include <string_view>

#include "util/bytes.h"
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

std::size_t checked_columns(std::size_t n, const char* what) {
  if (n <= kMaxTupleColumns) return n;
  assert(false && "tuple exceeds the codec's u8 column-count limit");
  SONATA_WARN("report", "%s has %zu columns; codec limit is %zu — truncating", what, n,
              kMaxTupleColumns);
  return kMaxTupleColumns;
}

void put_uint_column(std::vector<std::byte>& out, std::uint64_t v) {
  util::put_u8(out, 0);
  util::put_u64(out, v);
}

void put_string_column(std::vector<std::byte>& out, std::string_view s, const char* what) {
  std::size_t n = s.size();
  if (n > kMaxStringBytes) {
    assert(false && "string value exceeds the codec's u16 length limit");
    SONATA_WARN("report", "%s string value is %zu bytes; codec limit is %zu — truncating", what,
                n, kMaxStringBytes);
    n = kMaxStringBytes;
  }
  util::put_u8(out, 1);
  util::put_u16(out, static_cast<std::uint16_t>(n));
  const auto* bytes = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), bytes, bytes + n);
}

// The column count and columns of one tuple; false on a bad tag or a
// short read.
bool read_tuple(util::ByteReader& r, query::Tuple& tuple) {
  const std::uint8_t ncols = r.u8();
  if (!r.ok()) return false;
  tuple.values.reserve(ncols);
  for (std::uint8_t c = 0; c < ncols; ++c) {
    const std::uint8_t tag = r.u8();
    if (tag == 0) {
      tuple.values.emplace_back(r.u64());
    } else if (tag == 1) {
      tuple.values.emplace_back(query::Value{r.str(r.u16())});
    } else {
      return false;
    }
    if (!r.ok()) return false;
  }
  return true;
}

}  // namespace

std::vector<std::byte> encode_report(const pisa::EmitRecord& record) {
  std::vector<std::byte> out;
  out.reserve(24 + record.tuple.size() * 9);
  encode_report_into(record, out);
  return out;
}

void encode_report_into(const pisa::EmitRecord& record, std::vector<std::byte>& out) {
  util::put_u16(out, kReportMagic);
  util::put_u8(out, static_cast<std::uint8_t>(record.kind));
  util::put_u16(out, record.qid);
  util::put_u8(out, static_cast<std::uint8_t>(record.source_index));
  util::put_u16(out, static_cast<std::uint16_t>(record.level));
  util::put_u16(out, static_cast<std::uint16_t>(record.op_index));
  util::put_u64(out, record.ingest_ns);
  encode_tuple(record.tuple, out);
}

void encode_tuple(const query::Tuple& tuple, std::vector<std::byte>& out) {
  const std::size_t ncols = checked_columns(tuple.size(), "tuple");
  util::put_u8(out, static_cast<std::uint8_t>(ncols));
  for (std::size_t c = 0; c < ncols; ++c) {
    const auto& v = tuple.values[c];
    if (v.is_uint()) {
      put_uint_column(out, v.as_uint());
    } else {
      put_string_column(out, v.as_string(), "tuple");
    }
  }
}

void encode_polled_key(const pisa::PolledBlock& block, std::size_t i,
                       std::vector<std::byte>& out) {
  const std::size_t ncols = checked_columns(block.width(), "polled key");
  const std::uint64_t* words = block.key(i);
  const query::Value* strings = block.strings(i);
  util::put_u8(out, static_cast<std::uint8_t>(ncols));
  for (std::size_t c = 0; c < ncols; ++c) {
    if (block.is_string(c)) {
      put_string_column(out, (strings++)->as_string(), "polled key");
    } else {
      put_uint_column(out, words[c]);
    }
  }
}

std::optional<query::Tuple> decode_tuple(std::span<const std::byte> data) {
  util::ByteReader r(data);
  query::Tuple tuple;
  if (!read_tuple(r, tuple) || !r.done()) return std::nullopt;  // trailing bytes fail
  return tuple;
}

std::optional<pisa::EmitRecord> decode_report(std::span<const std::byte> data) {
  util::ByteReader r(data);
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
  // Trailing bytes: a corrupted report.
  if (!read_tuple(r, record.tuple) || !r.done()) return std::nullopt;
  return record;
}

}  // namespace sonata::runtime
