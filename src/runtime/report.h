// Wire format for mirrored report packets (paper §5, Figure 6): the switch
// embeds the query identifier and the query-specific intermediate results
// in the mirrored packet; the emitter parses them by qid and forwards
// tuples to the stream processor.
//
// Layout (big endian, written and read through util/bytes.h):
//   magic   u16  = 0x50A7 ("SONATA")
//   kind    u8   (EmitRecord::Kind)
//   qid     u16
//   source  u8
//   level   u16  (0xffff encodes level -1; never used in practice)
//   op      u16  (operator index where the tuple re-enters the SP chain)
//   ingest  u64  (EmitRecord::ingest_ns; 0 when obs is off)
//   the tuple, as encode_tuple writes it:
//   ncols   u8
//   per column:
//     tag   u8   0 = uint64, 1 = string
//     uint64: value u64
//     string: len u16, bytes
//
// decode_report is fully bounds-checked: truncated or corrupted reports
// yield nullopt, never a crash (fuzzed in report_test).
//
// Reports travel in chunked data frames (DESIGN.md "Deployment modes &
// report transport"): ChunkWriter writes them, FrameSender numbers them and
// draws their wire faults, and read_data_frame reads them back. Every
// driver's report wire is this one path: a SwitchNode's frames cross a
// real transport, and a Fleet under wire faults loops each shard's records
// through it in-process.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/transport/frame.h"
#include "pisa/switch.h"
#include "util/bytes.h"

namespace sonata::runtime {

inline constexpr std::uint16_t kReportMagic = 0x50A7;

[[nodiscard]] std::vector<std::byte> encode_report(const pisa::EmitRecord& record);

// Append-into variant for callers that batch many reports into one buffer
// (the multi-process transport frames several reports per kRecords frame).
void encode_report_into(const pisa::EmitRecord& record, std::vector<std::byte>& out);

[[nodiscard]] std::optional<pisa::EmitRecord> decode_report(std::span<const std::byte> data);

// Bare-tuple codec with the report codec's column encoding (tag u8 then
// u64 / len-prefixed string), for the raw-mirror and polled-partial
// payloads of the distributed deployment: ncols u8, then the columns.
// decode_tuple expects exactly one tuple in `data` (trailing bytes fail).
void encode_tuple(const query::Tuple& tuple, std::vector<std::byte>& out);
[[nodiscard]] std::optional<query::Tuple> decode_tuple(std::span<const std::byte> data);

// encode_tuple() of entry i's key in a polled register block, byte for
// byte, written straight from the block's words and strings.
void encode_polled_key(const pisa::PolledBlock& block, std::size_t i,
                       std::vector<std::byte>& out);

// Writes one chunked payload stream: every frame's payload is the stream's
// header, a u32 item count, then items, as many as fit `max_payload`. A
// kPartial item leads with a u64 value; kRecords, kRaw and kPartial items
// are u32-length-prefixed; a kWinners install is self-delimiting and goes
// in as is. A full frame goes to `emit` as soon as the next item does not
// fit it, and the last one at finish().
class ChunkWriter {
 public:
  using Emit = std::function<void(net::transport::Frame&&)>;

  ChunkWriter(net::transport::FrameType type, std::vector<std::byte> header,
              std::size_t max_payload, const char* what, Emit emit)
      : type_(type),
        header_(std::move(header)),
        max_payload_(max_payload),
        what_(what),
        emit_(std::move(emit)) {}

  // False, with error() set, when the item cannot fit even an empty frame:
  // it would go out oversized (EMSGSIZE on UDP, a wedged shm ring).
  [[nodiscard]] bool add(std::span<const std::byte> item, std::uint64_t value = 0) {
    using net::transport::FrameType;
    const std::size_t framing =
        (type_ == FrameType::kPartial ? 8 : 0) + (type_ == FrameType::kWinners ? 0 : 4);
    const std::size_t size = framing + item.size();
    if (count_ > 0 && payload_.size() + size > max_payload_) finish();
    if (count_ == 0) {
      if (header_.size() + 4 + size > max_payload_) {
        error_ = std::string("encoded ") + what_ + " exceeds the transport's max frame payload";
        return false;
      }
      payload_ = header_;
      util::put_u32(payload_, 0);
    }
    if (type_ == FrameType::kPartial) util::put_u64(payload_, value);
    if (type_ != FrameType::kWinners) {
      util::put_u32(payload_, static_cast<std::uint32_t>(item.size()));
    }
    payload_.insert(payload_.end(), item.begin(), item.end());
    ++count_;
    return true;
  }

  // Patch the open frame's count and emit it.
  void finish() {
    if (count_ == 0) return;
    util::patch_u32(payload_, header_.size(), count_);
    count_ = 0;
    emit_({.type = type_, .payload = std::exchange(payload_, {})});
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  net::transport::FrameType type_;
  std::vector<std::byte> header_;
  std::size_t max_payload_;
  const char* what_;
  Emit emit_;
  std::vector<std::byte> payload_;  // the open frame's
  std::uint32_t count_ = 0;         // items in the open frame
  std::string error_;
};

// Reads the items of a chunked payload (kRecords, kRaw, kPartial, and a
// kWinners install's keys) after its header: a u32 count, then per item a
// u64 value when `with_value` (kPartial), a u32 length and the item's
// bytes. `item(value, bytes)` returns false to stop. False on a payload
// that ends early or a stopped read.
template <typename Fn>
bool read_items(util::ByteReader& r, bool with_value, Fn&& item) {
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t value = with_value ? r.u64() : 0;
    const auto bytes = r.bytes(r.u32());
    if (!r.ok() || !item(value, bytes)) return false;
  }
  return r.ok();
}

// The sending half of the report wire, one per frame source (a switch
// node, or a Fleet shard). It numbers the source's data frames and draws
// every wire fault from one injector: report faults as send_records encodes
// each report, frame faults as send() hands each frame to `send`. A dropped
// frame still consumes its sequence number, so the receiver's reassembly
// counts it lost exactly once; a held (reordered) frame goes out after its
// successor, or at flush(), the window barrier. Writers hold its address.
class FrameSender {
 public:
  using Send = std::function<void(const net::transport::Frame&)>;

  // Frames carry at most `max_payload` bytes.
  FrameSender(std::uint16_t source, std::size_t max_payload, fault::Injector& injector, Send send);
  FrameSender(const FrameSender&) = delete;
  FrameSender& operator=(const FrameSender&) = delete;

  // Chunked data frames of `shard` (and, for kPartial, `pipeline`) that
  // go out through send(); `what` names an item in errors.
  [[nodiscard]] ChunkWriter writer(net::transport::FrameType type, std::size_t shard,
                                   const char* what, std::uint32_t pipeline = 0);
  // `records` through `out`, then out.finish(). False, with out.error()
  // set, on a report that fits no frame.
  [[nodiscard]] bool send_records(ChunkWriter& out, std::span<const pisa::EmitRecord> records);
  void send(net::transport::Frame f);
  void flush();

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return seq_; }
  // Mutated reports in the frames not dropped, so far.
  [[nodiscard]] std::uint64_t mutated_sent() const noexcept { return mutated_sent_; }

 private:
  std::uint16_t source_;
  std::size_t max_payload_;
  fault::Injector* injector_;
  Send send_;
  std::uint64_t seq_ = 0;
  std::optional<net::transport::Frame> held_;
  std::uint64_t mutated_open_ = 0;  // mutated reports in the frame being written
  std::uint64_t mutated_sent_ = 0;
  std::vector<std::byte> report_;  // send_records' encode buffer, reused
};

// One shard's window contribution, read back off its data frames.
struct ShardFrames {
  std::vector<pisa::EmitRecord> records;
  std::vector<query::Tuple> raws;
  std::vector<pisa::PolledBlock> polls;  // per pipeline, configured by the reader's owner
};

// What read_data_frame decoded, and the items that did not decode.
struct FrameItems {
  std::uint64_t records = 0;
  std::uint64_t raw_tuples = 0;
  std::uint64_t partial_entries = 0;
  std::uint64_t decode_failures = 0;
};

// Decodes one data frame (kRecords, kRaw or kPartial) into
// `shards[shard]`, the shard its header names, which must belong to the
// frame's source (shard % sources == f.source). An item that does not
// decode (for a partial, not to the pipeline's key layout) is counted and
// dropped. False on a malformed frame.
[[nodiscard]] bool read_data_frame(const net::transport::Frame& f, std::size_t sources,
                                   std::span<ShardFrames> shards, FrameItems& items);

}  // namespace sonata::runtime
