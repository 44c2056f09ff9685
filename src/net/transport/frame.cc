#include "net/transport/frame.h"

#include "util/bytes.h"

namespace sonata::net::transport {

namespace {

// The header after the datagram magic / stream length: type u8, source
// u16, seq u64.
void put_header(const Frame& f, std::vector<std::byte>& out) {
  util::put_u8(out, static_cast<std::uint8_t>(f.type));
  util::put_u16(out, f.source);
  util::put_u64(out, f.seq);
}

// The frame whose header `r` is at; nullopt on a bad type. The payload is
// `r`'s remaining `payload_bytes`.
std::optional<Frame> read_frame(util::ByteReader& r, std::size_t payload_bytes) {
  const std::uint8_t type = r.u8();
  if (!valid_frame_type(type)) return std::nullopt;
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.source = r.u16();
  f.seq = r.u64();
  const auto payload = r.bytes(payload_bytes);
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

}  // namespace

void encode_datagram(const Frame& f, std::vector<std::byte>& out) {
  out.clear();
  out.reserve(kFrameHeaderBytes + f.payload.size());
  util::put_u32(out, kFrameMagic);
  put_header(f, out);
  out.insert(out.end(), f.payload.begin(), f.payload.end());
}

std::optional<Frame> decode_datagram(std::span<const std::byte> data) {
  if (data.size() < kFrameHeaderBytes) return std::nullopt;
  if (data.size() - kFrameHeaderBytes > kMaxFramePayload) return std::nullopt;
  util::ByteReader r(data);
  if (r.u32() != kFrameMagic) return std::nullopt;
  return read_frame(r, data.size() - kFrameHeaderBytes);
}

void encode_stream(const Frame& f, std::vector<std::byte>& out) {
  out.reserve(out.size() + kFrameHeaderBytes + f.payload.size());
  util::put_u32(out, static_cast<std::uint32_t>(11 + f.payload.size()));
  put_header(f, out);
  out.insert(out.end(), f.payload.begin(), f.payload.end());
}

void StreamParser::feed(std::span<const std::byte> data) {
  if (error_) return;
  // Compact the consumed prefix before growing: steady-state keeps the
  // buffer at one partial frame, not the whole connection history.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> StreamParser::next() {
  if (error_) return std::nullopt;
  util::ByteReader r(std::span<const std::byte>(buf_).subspan(pos_));
  const std::uint32_t len = r.u32();
  if (!r.ok()) return std::nullopt;
  if (len < 11 || len - 11 > kMaxFramePayload) {
    error_ = true;  // framing lost: refuse to guess at a resync point
    return std::nullopt;
  }
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) return std::nullopt;  // torn read
  auto f = read_frame(r, len - 11);
  if (!f) {
    error_ = true;
    return std::nullopt;
  }
  pos_ += 4 + static_cast<std::size_t>(len);
  return f;
}

}  // namespace sonata::net::transport
