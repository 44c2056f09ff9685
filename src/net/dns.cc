#include "net/dns.h"

#include <algorithm>

#include "util/bytes.h"

namespace sonata::net {

namespace {

// Encode a domain name as length-prefixed labels. No compression pointers.
void encode_name(std::vector<std::byte>& out, std::string_view name) {
  std::size_t start = 0;
  while (start < name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    const std::size_t len = std::min<std::size_t>(dot - start, 63);
    out.push_back(static_cast<std::byte>(len));
    for (std::size_t i = 0; i < len; ++i) out.push_back(static_cast<std::byte>(name[start + i]));
    start = dot + 1;
  }
  out.push_back(std::byte{0});
}

// Decode a (non-compressed) domain name; compression pointers terminate the
// name (we never emit them, but tolerate them on input).
bool decode_name(util::ByteReader& r, std::string& out) {
  out.clear();
  for (int guard = 0; guard < 128; ++guard) {
    const std::uint8_t len = r.u8();
    if (!r.ok()) return false;
    if (len == 0) return true;
    if ((len & 0xc0) == 0xc0) {  // compression pointer: consume offset byte, stop
      r.skip(1);
      return r.ok();
    }
    if (len > 63) return false;
    if (!out.empty()) out.push_back('.');
    out += r.str(len);
    if (!r.ok()) return false;
  }
  return false;
}

}  // namespace

std::size_t dns_label_count(std::string_view name) noexcept {
  if (name.empty() || name == ".") return 0;
  return static_cast<std::size_t>(std::count(name.begin(), name.end(), '.')) + 1;
}

std::string dns_name_prefix(std::string_view name, std::size_t levels) {
  if (levels == 0) return ".";
  const std::size_t total = dns_label_count(name);
  if (levels >= total) return std::string(name);
  // Keep the last `levels` labels: skip (total - levels) leading labels.
  std::size_t skip = total - levels;
  std::size_t pos = 0;
  while (skip > 0) {
    pos = name.find('.', pos) + 1;
    --skip;
  }
  return std::string(name.substr(pos));
}

std::vector<std::byte> dns_encode(const DnsMessage& msg) {
  std::vector<std::byte> out;
  out.reserve(64 + msg.qname.size() + msg.answer_addrs.size() * 16 + msg.extra_answer_bytes);
  util::put_u16(out, msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  if (msg.recursion_desired) flags |= 0x0100;
  util::put_u16(out, flags);
  util::put_u16(out, 1);  // QDCOUNT
  const auto ancount =
      static_cast<std::uint16_t>(msg.answer_addrs.size() + (msg.extra_answer_bytes > 0 ? 1 : 0));
  util::put_u16(out, msg.is_response ? std::max(msg.answer_count, ancount) : 0);
  util::put_u16(out, 0);  // NSCOUNT
  util::put_u16(out, 0);  // ARCOUNT
  encode_name(out, msg.qname);
  util::put_u16(out, msg.qtype);
  util::put_u16(out, msg.qclass);
  if (msg.is_response) {
    for (std::uint32_t addr : msg.answer_addrs) {
      encode_name(out, msg.qname);
      util::put_u16(out, 1);  // TYPE A
      util::put_u16(out, 1);  // CLASS IN
      util::put_u32(out, 300);
      util::put_u16(out, 4);  // RDLENGTH
      util::put_u32(out, addr);
    }
    if (msg.extra_answer_bytes > 0) {
      encode_name(out, msg.qname);
      util::put_u16(out, 16);  // TYPE TXT (opaque padding record)
      util::put_u16(out, 1);
      util::put_u32(out, 300);
      util::put_u16(out, msg.extra_answer_bytes);
      out.insert(out.end(), msg.extra_answer_bytes, std::byte{0x41});
    }
  }
  return out;
}

std::optional<DnsMessage> dns_decode(std::span<const std::byte> data) {
  util::ByteReader r(data);
  DnsMessage msg;
  msg.id = r.u16();
  const std::uint16_t flags = r.u16();
  msg.is_response = (flags & 0x8000) != 0;
  msg.recursion_desired = (flags & 0x0100) != 0;
  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  r.skip(4);  // NSCOUNT, ARCOUNT
  if (!r.ok() || qdcount != 1) return std::nullopt;
  if (!decode_name(r, msg.qname)) return std::nullopt;
  msg.qtype = r.u16();
  msg.qclass = r.u16();
  msg.answer_count = ancount;
  for (std::uint16_t i = 0; i < ancount && r.ok(); ++i) {
    std::string name;
    if (!decode_name(r, name)) return std::nullopt;
    const std::uint16_t type = r.u16();
    r.skip(6);  // class, ttl
    const std::uint16_t rdlen = r.u16();
    if (!r.ok()) return std::nullopt;
    if (type == 1 && rdlen == 4) {
      msg.answer_addrs.push_back(r.u32());
    } else {
      msg.extra_answer_bytes = static_cast<std::uint16_t>(msg.extra_answer_bytes + rdlen);
      r.skip(rdlen);
    }
  }
  if (!r.ok()) return std::nullopt;
  return msg;
}

}  // namespace sonata::net
