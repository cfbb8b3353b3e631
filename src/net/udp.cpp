#include "net/udp.h"

#include "net/checksum.h"

namespace dnstime::net {

namespace {

void store_be16(u8* p, u16 v) {
  p[0] = static_cast<u8>(v >> 8);
  p[1] = static_cast<u8>(v);
}

/// Checksum of a fully framed datagram (header csum field holds zero).
u16 datagram_checksum(std::span<const u8> wire, Ipv4Addr src, Ipv4Addr dst) {
  u16 sum = pseudo_header_sum(src, dst, kProtoUdp,
                              static_cast<u16>(wire.size()));
  sum = ones_complement_add(sum, ones_complement_sum(wire));
  u16 csum = static_cast<u16>(~sum);
  // RFC 768: transmitted 0 means "no checksum"; an all-zero result is sent
  // as 0xFFFF.
  return csum == 0 ? 0xFFFF : csum;
}

}  // namespace

PacketBuf encode_udp(PacketBuf payload, u16 src_port, u16 dst_port,
                     Ipv4Addr src, Ipv4Addr dst) {
  PacketBuf dgram = std::move(payload);
  u8* h = dgram.prepend(kUdpHeaderSize);
  store_be16(h + 0, src_port);
  store_be16(h + 2, dst_port);
  store_be16(h + 4, static_cast<u16>(dgram.size()));
  store_be16(h + 6, 0);
  store_be16(h + 6, datagram_checksum(dgram.span(), src, dst));
  return dgram;
}

UdpDatagram decode_udp(const PacketBuf& wire, Ipv4Addr src, Ipv4Addr dst) {
  std::span<const u8> data = wire.span();
  ByteReader r(data);
  UdpDatagram d;
  d.src_port = r.read_u16();
  d.dst_port = r.read_u16();
  u16 length = r.read_u16();
  if (length < kUdpHeaderSize || length > data.size()) {
    throw DecodeError("bad UDP length");
  }
  u16 wire_csum = r.read_u16();
  if (wire_csum != 0) {
    u16 sum = pseudo_header_sum(src, dst, kProtoUdp, length);
    sum = ones_complement_add(sum, ones_complement_sum(data.subspan(0, length)));
    if (static_cast<u16>(~sum) != 0) throw DecodeError("bad UDP checksum");
  }
  d.payload = wire.slice(kUdpHeaderSize, length - kUdpHeaderSize);
  return d;
}

}  // namespace dnstime::net
