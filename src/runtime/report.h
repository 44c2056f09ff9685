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
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "pisa/switch.h"

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

}  // namespace sonata::runtime
