// Wire-format tests for the mirrored report packets (runtime/report.h):
// exact encode/decode roundtrips for every EmitRecord kind, and the fuzz
// coverage the header promises — truncation and corruption must yield
// nullopt (or a well-formed record, for corruptions the format cannot
// detect), never a crash.
#include "runtime/report.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

namespace sonata {
namespace {

using pisa::EmitRecord;
using runtime::decode_report;
using runtime::encode_report;

EmitRecord make_record(EmitRecord::Kind kind) {
  EmitRecord rec;
  rec.kind = kind;
  rec.qid = 7;
  rec.source_index = 2;
  rec.level = 16;
  rec.op_index = 3;
  rec.ingest_ns = 0x1122334455667788ULL;
  rec.tuple.values.emplace_back(std::uint64_t{0x0A00000200000001ULL});
  rec.tuple.values.emplace_back(std::uint64_t{53});
  return rec;
}

void expect_equal(const EmitRecord& a, const EmitRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.qid, b.qid);
  EXPECT_EQ(a.source_index, b.source_index);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.op_index, b.op_index);
  EXPECT_EQ(a.ingest_ns, b.ingest_ns);
  EXPECT_EQ(a.tuple, b.tuple);
}

TEST(Report, RoundtripAllKinds) {
  for (const auto kind : {EmitRecord::Kind::kStream, EmitRecord::Kind::kKeyReport,
                          EmitRecord::Kind::kOverflow}) {
    const EmitRecord rec = make_record(kind);
    const auto bytes = encode_report(rec);
    const auto back = decode_report(bytes);
    ASSERT_TRUE(back.has_value());
    expect_equal(rec, *back);
  }
}

TEST(Report, RoundtripStringColumns) {
  EmitRecord rec = make_record(EmitRecord::Kind::kStream);
  rec.tuple.values.emplace_back(std::string{"evil.tunnel.example"});
  rec.tuple.values.emplace_back(std::string{});  // empty string column
  const auto bytes = encode_report(rec);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  expect_equal(rec, *back);
}

TEST(Report, RoundtripEmptyTupleAndNegativeLevel) {
  EmitRecord rec;
  rec.kind = EmitRecord::Kind::kKeyReport;
  rec.qid = 0xffff;
  rec.source_index = 0xff;
  rec.level = -1;  // encoded as 0xffff
  rec.op_index = 0;
  const auto bytes = encode_report(rec);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  expect_equal(rec, *back);
}

TEST(Report, EveryTruncationReturnsNullopt) {
  EmitRecord rec = make_record(EmitRecord::Kind::kOverflow);
  rec.tuple.values.emplace_back(std::string{"payload"});
  const auto bytes = encode_report(rec);
  // Every strict prefix is either too short for the header or drops column
  // bytes; decode must reject all of them (it also requires no trailing
  // bytes, so only the full buffer roundtrips).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_report(std::span<const std::byte>{bytes.data(), len}).has_value())
        << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(decode_report(bytes).has_value());
}

TEST(Report, TrailingBytesRejected) {
  auto bytes = encode_report(make_record(EmitRecord::Kind::kStream));
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(Report, CorruptMagicRejected) {
  auto bytes = encode_report(make_record(EmitRecord::Kind::kStream));
  bytes[0] = std::byte{0x00};
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(Report, CorruptKindRejected) {
  auto bytes = encode_report(make_record(EmitRecord::Kind::kStream));
  bytes[2] = std::byte{0x03};  // only kinds 0..2 exist
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(Report, CorruptColumnTagRejected) {
  const EmitRecord rec = make_record(EmitRecord::Kind::kStream);
  auto bytes = encode_report(rec);
  // First column tag sits right after the 19-byte header (magic..ncols,
  // including the 8-byte ingest timestamp).
  bytes[19] = std::byte{0x02};  // only tags 0 (u64) and 1 (string) exist
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(Report, SingleByteFlipsNeverCrash) {
  EmitRecord rec = make_record(EmitRecord::Kind::kKeyReport);
  rec.tuple.values.emplace_back(std::string{"fuzzme"});
  const auto bytes = encode_report(rec);
  // Flip every bit of every byte; decode must return nullopt or a valid
  // record, never crash or read out of bounds (ASan/UBSan catch the rest).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      (void)decode_report(mutated);
    }
  }
}

TEST(Report, RandomMutationsNeverCrash) {
  EmitRecord rec = make_record(EmitRecord::Kind::kStream);
  rec.tuple.values.emplace_back(std::string{"abcdefgh"});
  const auto bytes = encode_report(rec);
  std::mt19937_64 rng{0x50A7};
  for (int round = 0; round < 2000; ++round) {
    auto mutated = bytes;
    // 1-4 random byte stomps, then a random truncation half the time.
    const int stomps = 1 + static_cast<int>(rng() % 4);
    for (int s = 0; s < stomps; ++s) {
      mutated[rng() % mutated.size()] = std::byte{static_cast<unsigned char>(rng())};
    }
    std::size_t len = mutated.size();
    if (rng() % 2 == 0) len = rng() % (mutated.size() + 1);
    (void)decode_report(std::span<const std::byte>{mutated.data(), len});
  }
}

TEST(Report, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng{42};
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> garbage(rng() % 64);
    for (auto& b : garbage) b = std::byte{static_cast<unsigned char>(rng())};
    (void)decode_report(garbage);
  }
}

TEST(Report, PolledKeyEncodesLikeItsTuple) {
  // The switch node encodes kPartial keys straight from a polled block;
  // the bytes must be encode_tuple's, so the wire format is unchanged.
  using query::Value;
  using query::ValueKind;
  pisa::PolledBlock block;
  const ValueKind kinds[] = {ValueKind::kUint, ValueKind::kString, ValueKind::kUint};
  block.configure(kinds);
  const query::Tuple a{{Value{std::uint64_t{7}}, Value{std::string("a.example.com")},
                        Value{~std::uint64_t{0}}}};
  const query::Tuple b{{Value{std::uint64_t{0}}, Value{std::string()}, Value{std::uint64_t{1}}}};
  ASSERT_TRUE(block.append(a, 3));
  ASSERT_TRUE(block.append(b, 4));
  EXPECT_FALSE(block.append(query::Tuple{{Value{std::uint64_t{1}}}}, 5));  // wrong layout
  ASSERT_EQ(block.size(), 2u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    std::vector<std::byte> got;
    std::vector<std::byte> want;
    runtime::encode_polled_key(block, i, got);
    runtime::encode_tuple(block.key_tuple(i), want);
    EXPECT_EQ(got, want) << "entry " << i;
    const auto decoded = runtime::decode_tuple(got);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, i == 0 ? a : b);
    EXPECT_EQ(block.hash(i), decoded->hash());
  }
}

}  // namespace
}  // namespace sonata
