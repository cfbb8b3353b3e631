#include "ntp/packet.h"

#include <gtest/gtest.h>

#include "ntp/timestamps.h"

namespace dnstime::ntp {
namespace {

TEST(NtpPacket, RoundTrip) {
  NtpPacket pkt;
  pkt.leap = 0;
  pkt.version = 4;
  pkt.mode = Mode::kServer;
  pkt.stratum = 2;
  pkt.poll = 6;
  pkt.precision = -23;
  pkt.refid = Ipv4Addr{10, 1, 2, 3}.value();
  pkt.ref_time = kSimEpochNtpSeconds - 16;
  pkt.org_time = kSimEpochNtpSeconds + 1.25;
  pkt.rx_time = kSimEpochNtpSeconds + 1.5;
  pkt.tx_time = kSimEpochNtpSeconds + 1.75;
  PacketBuf wire = encode_ntp(pkt);
  ASSERT_EQ(wire.size(), 48u);
  NtpPacket back = decode_ntp(wire);
  EXPECT_EQ(back.mode, Mode::kServer);
  EXPECT_EQ(back.stratum, 2);
  EXPECT_EQ(back.precision, -23);
  EXPECT_EQ(back.refid, pkt.refid);
  EXPECT_NEAR(back.org_time, pkt.org_time, 1e-6);
  EXPECT_NEAR(back.rx_time, pkt.rx_time, 1e-6);
  EXPECT_NEAR(back.tx_time, pkt.tx_time, 1e-6);
}

TEST(NtpPacket, TimestampPrecisionIsSubMicrosecond) {
  double t = kSimEpochNtpSeconds + 0.123456789;
  EXPECT_NEAR(from_wire_timestamp(to_wire_timestamp(t)), t, 1e-7);
}

TEST(NtpPacket, KodDetection) {
  NtpPacket kod;
  kod.mode = Mode::kServer;
  kod.stratum = 0;
  kod.refid = kKodRate;
  EXPECT_TRUE(kod.is_kod());
  EXPECT_TRUE(kod.is_rate_kod());
  PacketBuf wire = encode_ntp(kod);
  EXPECT_TRUE(decode_ntp(wire).is_rate_kod());

  NtpPacket normal;
  normal.stratum = 2;
  EXPECT_FALSE(normal.is_kod());
}

TEST(NtpPacket, ShortPacketRejected) {
  Bytes junk(20, 0);
  EXPECT_THROW((void)decode_ntp(junk), DecodeError);
}

TEST(NtpPacket, ConfigMessagesRoundTrip) {
  EXPECT_TRUE(is_config_request(encode_config_request()));
  ConfigResponse resp;
  resp.upstream_addrs = {Ipv4Addr{1, 2, 3, 4}, Ipv4Addr{5, 6, 7, 8}};
  resp.configured_hostname = "pool.ntp.org";
  auto back = decode_config_response(encode_config_response(resp));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->upstream_addrs.size(), 2u);
  EXPECT_EQ(back->configured_hostname, "pool.ntp.org");
  EXPECT_FALSE(decode_config_response(encode_config_request()));
}

}  // namespace
}  // namespace dnstime::ntp
