// UDP datagram codec with real RFC 768 checksum over the IPv4 pseudo
// header. Checksum verification on receive is what forces the attacker's
// §III-3 compensation trick — a naively modified fragment fails here.
#pragma once

#include "common/bytes.h"
#include "common/types.h"
#include "net/ipv4.h"

namespace dnstime::net {

inline constexpr std::size_t kUdpHeaderSize = 8;

struct UdpDatagram {
  u16 src_port = 0;
  u16 dst_port = 0;
  PacketBuf payload;
};

/// Prepends the 8-byte UDP header into `payload`'s headroom (every encoder
/// reserves kPacketHeadroom) and patches the checksum, computed over
/// pseudo header + UDP header + payload, in place — the datagram the
/// netstack's send path hands to fragmentation.
[[nodiscard]] PacketBuf encode_udp(PacketBuf payload, u16 src_port,
                                   u16 dst_port, Ipv4Addr src, Ipv4Addr dst);

/// Decode and verify the checksum; throws DecodeError on mismatch. The
/// returned datagram's payload is a zero-copy slice of `wire`.
[[nodiscard]] UdpDatagram decode_udp(const PacketBuf& wire, Ipv4Addr src,
                                     Ipv4Addr dst);

}  // namespace dnstime::net
