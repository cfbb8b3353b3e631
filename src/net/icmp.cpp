#include "net/icmp.h"

#include "net/checksum.h"

namespace dnstime::net {

PacketBuf encode_icmp_frag_needed(const IcmpFragNeeded& msg) {
  ByteWriter w;
  w.write_u8(kIcmpDestUnreachable);
  w.write_u8(kIcmpCodeFragNeeded);
  w.write_u16(0);  // checksum placeholder
  w.write_u16(0);  // unused
  w.write_u16(msg.mtu);
  // Embedded original IPv4 header (RFC 792 requires header + 64 bits of
  // payload). We embed a synthetic header carrying the fields receivers
  // actually consult.
  Ipv4Packet orig;
  orig.src = msg.orig_src;
  orig.dst = msg.orig_dst;
  orig.protocol = msg.orig_protocol;
  orig.payload.assign(8, 0);
  w.write_bytes(encode(orig));
  w.patch_u16(2, internet_checksum(w.data()));
  return std::move(w).take_buf();
}

IcmpFragNeeded decode_icmp_frag_needed(std::span<const u8> data) {
  if (internet_checksum(data) != 0) throw DecodeError("bad ICMP checksum");
  ByteReader r(data);
  u8 type = r.read_u8();
  u8 code = r.read_u8();
  if (type != kIcmpDestUnreachable || code != kIcmpCodeFragNeeded) {
    throw DecodeError("not fragmentation-needed");
  }
  (void)r.read_u16();  // checksum
  (void)r.read_u16();  // unused
  IcmpFragNeeded msg;
  msg.mtu = r.read_u16();
  Ipv4Packet orig = decode_ipv4(r.raw().subspan(r.pos()));
  msg.orig_src = orig.src;
  msg.orig_dst = orig.dst;
  msg.orig_protocol = orig.protocol;
  return msg;
}

Ipv4Packet make_frag_needed_packet(Ipv4Addr router, Ipv4Addr target,
                                   Ipv4Addr orig_src, Ipv4Addr orig_dst,
                                   u16 mtu) {
  Ipv4Packet pkt;
  pkt.src = router;
  pkt.dst = target;
  pkt.protocol = kProtoIcmp;
  pkt.payload = encode_icmp_frag_needed(
      IcmpFragNeeded{.mtu = mtu, .orig_src = orig_src, .orig_dst = orig_dst});
  return pkt;
}

}  // namespace dnstime::net
