#include "net/ipv4.h"

#include <gtest/gtest.h>

#include "net/checksum.h"

namespace dnstime::net {
namespace {

Ipv4Packet sample() {
  Ipv4Packet pkt;
  pkt.src = Ipv4Addr{10, 0, 0, 1};
  pkt.dst = Ipv4Addr{10, 0, 0, 2};
  pkt.id = 0x1234;
  pkt.ttl = 61;
  pkt.protocol = kProtoUdp;
  pkt.payload = {1, 2, 3, 4, 5};
  return pkt;
}

TEST(Ipv4Codec, RoundTrip) {
  Ipv4Packet pkt = sample();
  PacketBuf wire = encode(pkt);
  ASSERT_EQ(wire.size(), kIpv4HeaderSize + 5);
  Ipv4Packet back = decode_ipv4(wire);
  EXPECT_EQ(back.src, pkt.src);
  EXPECT_EQ(back.dst, pkt.dst);
  EXPECT_EQ(back.id, pkt.id);
  EXPECT_EQ(back.ttl, pkt.ttl);
  EXPECT_EQ(back.protocol, pkt.protocol);
  EXPECT_EQ(back.payload, pkt.payload);
  EXPECT_FALSE(back.is_fragment());
}

TEST(Ipv4Codec, FragmentFieldsRoundTrip) {
  Ipv4Packet pkt = sample();
  pkt.more_fragments = true;
  pkt.frag_offset_units = 34;
  PacketBuf wire = encode(pkt);
  Ipv4Packet back = decode_ipv4(wire);
  EXPECT_TRUE(back.more_fragments);
  EXPECT_EQ(back.frag_offset_units, 34);
  EXPECT_TRUE(back.is_fragment());
  EXPECT_EQ(back.frag_offset_bytes(), 34u * 8);
}

TEST(Ipv4Codec, DontFragmentBitRoundTrips) {
  Ipv4Packet pkt = sample();
  pkt.dont_fragment = true;
  EXPECT_TRUE(decode_ipv4(encode(pkt)).dont_fragment);
}

TEST(Ipv4Codec, HeaderChecksumIsValid) {
  PacketBuf wire = encode(sample());
  EXPECT_EQ(internet_checksum(wire.span().subspan(0, kIpv4HeaderSize)), 0);
}

TEST(Ipv4Codec, CorruptedHeaderRejected) {
  Bytes wire = encode(sample()).to_bytes();
  wire[8] ^= 0xFF;  // flip TTL without fixing checksum
  EXPECT_THROW((void)decode_ipv4(wire), DecodeError);
}

TEST(Ipv4Codec, TruncatedInputRejected) {
  Bytes wire = encode(sample()).to_bytes();
  wire.resize(10);
  EXPECT_THROW((void)decode_ipv4(wire), DecodeError);
}

TEST(Ipv4Codec, NonIpv4Rejected) {
  Bytes wire = encode(sample()).to_bytes();
  wire[0] = 0x65;  // version 6
  EXPECT_THROW((void)decode_ipv4(wire), DecodeError);
}

}  // namespace
}  // namespace dnstime::net
