// Every wire encoder returns a pooled PacketBuf with room in front for the
// lower layers' headers, so the send path (encode -> encode_udp -> IPv4)
// prepends in place instead of copying the payload into a fresh block.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "dns/message.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/udp.h"
#include "ntp/packet.h"

namespace dnstime::net {
namespace {

const Ipv4Addr kSrc{198, 51, 100, 53};
const Ipv4Addr kDst{10, 53, 0, 1};

u64 pool_acquires() {
  const BufferPool::Stats& s = BufferPool::local().stats();
  return s.pool_hits + s.fresh_allocs + s.oversize_allocs;
}

struct EncoderCase {
  std::string name;
  std::function<PacketBuf()> encode;
  /// Headroom the output must keep. Payload encoders keep the full
  /// kPacketHeadroom; a UDP datagram has spent 8 bytes of it and keeps the
  /// rest for the IPv4 header.
  std::size_t min_headroom = kPacketHeadroom;
};

std::vector<EncoderCase> every_encoder() {
  Ipv4Packet ip;
  ip.src = kSrc;
  ip.dst = kDst;
  ip.payload = {1, 2, 3, 4, 5};

  dns::DnsMessage query;
  query.id = 0x1234;
  query.questions = {dns::DnsQuestion{
      dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA}};

  ntp::NtpPacket ntp_query;
  ntp_query.tx_time = 1.0;

  ntp::ConfigResponse config;
  config.upstream_addrs = {Ipv4Addr{1, 2, 3, 4}};
  config.configured_hostname = "pool.ntp.org";

  return {
      {"ipv4", [ip] { return encode(ip); }},
      {"udp",
       [] { return encode_udp({9, 8, 7}, 123, 123, kSrc, kDst); },
       kPacketHeadroom - kUdpHeaderSize},
      {"icmp_frag_needed",
       [] {
         return encode_icmp_frag_needed(IcmpFragNeeded{
             .mtu = 296, .orig_src = kSrc, .orig_dst = kDst});
       }},
      {"dns", [query] { return dns::encode_dns(query); }},
      {"ntp", [ntp_query] { return ntp::encode_ntp(ntp_query); }},
      {"config_request", [] { return ntp::encode_config_request(); }},
      {"config_response",
       [config] { return ntp::encode_config_response(config); }},
  };
}

TEST(EncoderHeadroom, EveryEncoderKeepsHeadroomAndUdpPrependsInPlace) {
  static_assert(kPacketHeadroom - kUdpHeaderSize >= kIpv4HeaderSize);
  for (const EncoderCase& c : every_encoder()) {
    PacketBuf wire = c.encode();
    ASSERT_FALSE(wire.empty()) << c.name;
    EXPECT_GE(wire.headroom(), c.min_headroom) << c.name;

    const Bytes before = wire.to_bytes();
    const u8* body = std::as_const(wire).data();
    const u64 acquires = pool_acquires();
    PacketBuf dgram = encode_udp(std::move(wire), 53, 4444, kSrc, kDst);
    // Same block, header written into the headroom, nothing acquired.
    EXPECT_EQ(std::as_const(dgram).data(), body - kUdpHeaderSize) << c.name;
    EXPECT_EQ(pool_acquires(), acquires) << c.name;
    EXPECT_EQ(decode_udp(dgram, kSrc, kDst).payload, before) << c.name;
  }
}

}  // namespace
}  // namespace dnstime::net
