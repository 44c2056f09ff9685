#include "net/wire.h"

#include "util/bytes.h"

namespace sonata::net {

std::uint16_t internet_checksum(std::span<const std::byte> data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | static_cast<std::uint32_t>(data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::byte> serialize(const Packet& p) {
  std::vector<std::byte> out;
  std::size_t header_len = kIpv4MinHeaderLen;
  switch (static_cast<IpProto>(p.proto)) {
    case IpProto::kTcp: header_len += kTcpMinHeaderLen; break;
    case IpProto::kUdp: header_len += kUdpHeaderLen; break;
    case IpProto::kIcmp: header_len += kIcmpHeaderLen; break;
  }
  // The in-memory model may declare a total_len larger than the attached
  // payload (synthetic traffic carries sizes, not bodies). Pad the wire
  // representation so lengths survive serialization round-trips.
  const std::size_t attached = p.payload ? p.payload->size() : 0;
  const std::size_t declared =
      p.total_len > header_len ? p.total_len - header_len : 0;
  const std::size_t payload_size = std::max(attached, declared);
  out.reserve(kEthernetHeaderLen + header_len + payload_size);

  // Ethernet: synthetic MACs, IPv4 ethertype.
  static constexpr std::byte kDstMac[6] = {std::byte{2}, std::byte{0}, std::byte{0},
                                           std::byte{0}, std::byte{0}, std::byte{2}};
  static constexpr std::byte kSrcMac[6] = {std::byte{2}, std::byte{0}, std::byte{0},
                                           std::byte{0}, std::byte{0}, std::byte{1}};
  out.insert(out.end(), std::begin(kDstMac), std::end(kDstMac));
  out.insert(out.end(), std::begin(kSrcMac), std::end(kSrcMac));
  util::put_u16(out, kEtherTypeIpv4);

  // IPv4 header (no options).
  const std::size_t ip_start = out.size();
  std::uint16_t l4_len = 0;
  switch (static_cast<IpProto>(p.proto)) {
    case IpProto::kTcp: l4_len = kTcpMinHeaderLen; break;
    case IpProto::kUdp: l4_len = kUdpHeaderLen; break;
    case IpProto::kIcmp: l4_len = kIcmpHeaderLen; break;
  }
  const auto ip_total =
      static_cast<std::uint16_t>(kIpv4MinHeaderLen + l4_len + payload_size);
  out.push_back(std::byte{0x45});  // version 4, IHL 5
  out.push_back(std::byte{0});     // DSCP/ECN
  util::put_u16(out, ip_total);
  util::put_u16(out, 0);       // identification
  util::put_u16(out, 0x4000);  // flags: DF
  out.push_back(static_cast<std::byte>(p.ttl));
  out.push_back(static_cast<std::byte>(p.proto));
  util::put_u16(out, 0);  // checksum placeholder
  util::put_u32(out, p.src_ip);
  util::put_u32(out, p.dst_ip);
  const std::uint16_t csum = internet_checksum(
      std::span{out.data() + ip_start, kIpv4MinHeaderLen});
  out[ip_start + 10] = static_cast<std::byte>(csum >> 8);
  out[ip_start + 11] = static_cast<std::byte>(csum & 0xff);

  // L4 header.
  switch (static_cast<IpProto>(p.proto)) {
    case IpProto::kTcp: {
      util::put_u16(out, p.src_port);
      util::put_u16(out, p.dst_port);
      util::put_u32(out, p.tcp_seq);
      util::put_u32(out, 0);                 // ack
      out.push_back(std::byte{0x50});  // data offset 5
      out.push_back(static_cast<std::byte>(p.tcp_flags));
      util::put_u16(out, 0xffff);  // window
      util::put_u16(out, 0);       // checksum (not computed; parser ignores)
      util::put_u16(out, 0);       // urgent
      break;
    }
    case IpProto::kUdp: {
      util::put_u16(out, p.src_port);
      util::put_u16(out, p.dst_port);
      util::put_u16(out, static_cast<std::uint16_t>(kUdpHeaderLen + payload_size));
      util::put_u16(out, 0);  // checksum optional for IPv4
      break;
    }
    case IpProto::kIcmp: {
      out.push_back(std::byte{8});  // echo request
      out.push_back(std::byte{0});
      util::put_u16(out, 0);  // checksum
      util::put_u32(out, 0);  // id/seq
      break;
    }
  }

  if (p.payload) {
    const auto* bytes = reinterpret_cast<const std::byte*>(p.payload->data());
    out.insert(out.end(), bytes, bytes + p.payload->size());
  }
  if (payload_size > attached) {
    out.insert(out.end(), payload_size - attached, std::byte{0});
  }
  return out;
}

std::optional<Packet> parse(std::span<const std::byte> frame, const ParseOptions& opts) {
  if (frame.size() < kEthernetHeaderLen + kIpv4MinHeaderLen) return std::nullopt;
  util::ByteReader eth(frame);
  eth.skip(12);  // MACs
  if (eth.u16() != kEtherTypeIpv4) return std::nullopt;

  const std::size_t ip = kEthernetHeaderLen;
  util::ByteReader r(frame.subspan(ip));
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (ihl < kIpv4MinHeaderLen || frame.size() < ip + ihl) return std::nullopt;

  Packet p;
  r.skip(1);  // DSCP/ECN
  p.total_len = r.u16();
  r.skip(4);  // identification, flags
  p.ttl = r.u8();
  p.proto = r.u8();
  r.skip(2);  // checksum
  p.src_ip = r.u32();
  p.dst_ip = r.u32();
  if (p.total_len < ihl || frame.size() < ip + p.total_len) return std::nullopt;

  const std::size_t l4 = ip + ihl;
  std::size_t payload_off = l4;
  util::ByteReader l4r(frame.subspan(l4));
  switch (static_cast<IpProto>(p.proto)) {
    case IpProto::kTcp: {
      if (frame.size() < l4 + kTcpMinHeaderLen) return std::nullopt;
      p.src_port = l4r.u16();
      p.dst_port = l4r.u16();
      p.tcp_seq = l4r.u32();
      l4r.skip(4);  // ack
      const std::size_t data_off = static_cast<std::size_t>(l4r.u8() >> 4) * 4;
      if (data_off < kTcpMinHeaderLen || frame.size() < l4 + data_off) return std::nullopt;
      p.tcp_flags = l4r.u8() & 0x3f;
      payload_off = l4 + data_off;
      break;
    }
    case IpProto::kUdp: {
      if (frame.size() < l4 + kUdpHeaderLen) return std::nullopt;
      p.src_port = l4r.u16();
      p.dst_port = l4r.u16();
      payload_off = l4 + kUdpHeaderLen;
      break;
    }
    case IpProto::kIcmp: {
      if (frame.size() < l4 + kIcmpHeaderLen) return std::nullopt;
      payload_off = l4 + kIcmpHeaderLen;
      break;
    }
    default:
      payload_off = l4;
      break;
  }

  const std::size_t frame_payload_end = ip + p.total_len;
  if (payload_off < frame_payload_end) {
    const std::size_t n = frame_payload_end - payload_off;
    p.payload = std::make_shared<const std::string>(
        reinterpret_cast<const char*>(frame.data() + payload_off), n);
    if (opts.parse_dns && p.is_udp() &&
        (p.dst_port == ports::kDns || p.src_port == ports::kDns)) {
      if (auto dns = dns_decode(frame.subspan(payload_off, n))) {
        p.dns = std::make_shared<const DnsMessage>(std::move(*dns));
      }
    }
  }
  return p;
}

}  // namespace sonata::net
