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

namespace nt = net::transport;

FrameSender::FrameSender(std::uint16_t source, std::size_t max_payload,
                         fault::Injector& injector, Send send)
    : source_(source), max_payload_(max_payload), injector_(&injector), send_(std::move(send)) {}

ChunkWriter FrameSender::writer(nt::FrameType type, std::size_t shard, const char* what,
                                std::uint32_t pipeline) {
  std::vector<std::byte> header;
  util::put_u16(header, static_cast<std::uint16_t>(shard));
  if (type == nt::FrameType::kPartial) util::put_u32(header, pipeline);
  return ChunkWriter(type, std::move(header), max_payload_, what,
                     [this](nt::Frame&& f) { send(std::move(f)); });
}

bool FrameSender::send_records(ChunkWriter& out, std::span<const pisa::EmitRecord> records) {
  for (const pisa::EmitRecord& rec : records) {
    report_.clear();
    encode_report_into(rec, report_);
    // A report fault mutates one report inside the frame; its length
    // prefix stays consistent, so exactly this report fails (or
    // mis-)decodes.
    const bool mutated = injector_->mutate_report(report_);
    if (!out.add(report_)) return false;
    // Counted after add(): a frame that add() emitted holds none of this
    // report.
    mutated_open_ += mutated ? 1 : 0;
  }
  out.finish();
  return true;
}

void FrameSender::send(nt::Frame f) {
  f.source = source_;
  f.seq = seq_++;
  const std::uint64_t mutated = std::exchange(mutated_open_, 0);
  switch (injector_->frame_fate(!held_.has_value())) {
    case fault::FrameFate::kDrop:
      return;
    case fault::FrameFate::kDuplicate:
      send_(f);
      break;
    case fault::FrameFate::kHold:
      mutated_sent_ += mutated;
      held_ = std::move(f);
      return;
    case fault::FrameFate::kSend:
      break;
  }
  mutated_sent_ += mutated;
  send_(f);
  flush();
}

void FrameSender::flush() {
  if (!held_) return;
  send_(*held_);
  held_.reset();
}

bool read_data_frame(const nt::Frame& f, std::size_t sources, std::span<ShardFrames> shards,
                     FrameItems& items) {
  util::ByteReader r(f.payload);
  const std::uint16_t shard = r.u16();
  const bool partial = f.type == nt::FrameType::kPartial;
  const std::uint32_t pipeline = partial ? r.u32() : 0;
  if (!r.ok() || shard >= shards.size() || shard % sources != f.source) return false;
  ShardFrames& sf = shards[shard];
  if (partial && pipeline >= sf.polls.size()) return false;
  return read_items(r, partial, [&](std::uint64_t value, std::span<const std::byte> bytes) {
    if (f.type == nt::FrameType::kRecords) {
      auto rec = decode_report(bytes);
      if (rec) sf.records.push_back(std::move(*rec));
      ++(rec ? items.records : items.decode_failures);
    } else if (f.type == nt::FrameType::kRaw) {
      auto t = decode_tuple(bytes);
      if (t) sf.raws.push_back(std::move(*t));
      ++(t ? items.raw_tuples : items.decode_failures);
    } else {
      auto t = decode_tuple(bytes);
      const bool appended = t && sf.polls[pipeline].append(*t, value);
      ++(appended ? items.partial_entries : items.decode_failures);
    }
    return true;
  });
}

}  // namespace sonata::runtime
