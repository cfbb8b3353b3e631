#include "attack/fragment_crafter.h"

#include <gtest/gtest.h>

#include "dns/pool_zone.h"
#include "net/fragmentation.h"
#include "net/reassembly.h"
#include "net/udp.h"

namespace dnstime::attack {
namespace {

const Ipv4Addr kNs{198, 51, 100, 53};
const Ipv4Addr kResolver{10, 53, 0, 1};
const Ipv4Addr kEvil{6, 6, 6, 53};

dns::DnsMessage pool_response() {
  dns::PoolZone::Config cfg;
  cfg.pad_txt_bytes = 80;
  cfg.nameservers = {
      {dns::DnsName::from_string("ns1.ntp.org"), kNs},
      {dns::DnsName::from_string("ns2.ntp.org"), kNs},
      {dns::DnsName::from_string("ns3.ntp.org"), kNs},
  };
  std::vector<Ipv4Addr> servers;
  for (u32 i = 1; i <= 16; ++i) servers.push_back(Ipv4Addr{0x0A0A0000 + i});
  dns::PoolZone zone(dns::DnsName::from_string("pool.ntp.org"), servers, cfg);
  dns::DnsMessage resp = zone.peek_response(
      dns::DnsQuestion{dns::DnsName::from_string("pool.ntp.org"),
                       dns::RrType::kA});
  resp.id = 0xABCD;  // per-query fields live in f1 and should not matter
  return resp;
}

CraftConfig config() {
  CraftConfig cc;
  cc.ns_addr = kNs;
  cc.resolver_addr = kResolver;
  cc.mtu = 296;
  cc.malicious_addrs = {kEvil};
  return cc;
}

TEST(FragmentCrafter, RewritesGlueRecords) {
  PacketBuf wire = encode_dns(pool_response());
  auto crafted = craft_spoofed_second_fragment(wire, config());
  ASSERT_TRUE(crafted);
  EXPECT_EQ(crafted->rewritten_records, 3u);  // all three glue A records
  EXPECT_EQ(crafted->fragment.src, kNs);
  EXPECT_EQ(crafted->fragment.dst, kResolver);
  EXPECT_FALSE(crafted->fragment.more_fragments);
  EXPECT_EQ(crafted->fragment.frag_offset_bytes(),
            crafted->first_fragment_payload);
}

TEST(FragmentCrafter, FailsWhenResponseDoesNotFragment) {
  dns::DnsMessage small;
  small.qr = true;
  small.questions = {dns::DnsQuestion{
      dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA}};
  small.answers.push_back(dns::make_a(
      dns::DnsName::from_string("pool.ntp.org"), Ipv4Addr{1, 1, 1, 1}, 150));
  EXPECT_FALSE(craft_spoofed_second_fragment(encode_dns(small), config()));
}

TEST(FragmentCrafter, FailsWithoutMaliciousAddrs) {
  CraftConfig cc = config();
  cc.malicious_addrs.clear();
  EXPECT_FALSE(craft_spoofed_second_fragment(encode_dns(pool_response()), cc));
}

TEST(FragmentCrafter, EndToEndPoisonedReassemblyPassesAllChecks) {
  // The full §III chain, byte-for-byte: genuine response fragments at the
  // induced MTU; the spoofed second fragment was planted first; reassembly
  // prefers it; the result passes the UDP checksum and decodes to a DNS
  // message whose glue points at the attacker.
  dns::DnsMessage genuine = pool_response();
  PacketBuf template_wire = encode_dns(genuine);
  CraftConfig cc = config();
  auto crafted = craft_spoofed_second_fragment(template_wire, cc);
  ASSERT_TRUE(crafted);

  // The genuine response as the nameserver would emit it to the resolver.
  // Different TXID than the template (TXID sits in f1).
  dns::DnsMessage victim_copy = genuine;
  victim_copy.id = 0x1357;
  net::Ipv4Packet full;
  full.src = kNs;
  full.dst = kResolver;
  full.id = 0x4242;
  full.protocol = net::kProtoUdp;
  full.payload =
      net::encode_udp(encode_dns(victim_copy), 53, 3333, kNs, kResolver);
  auto frags = net::fragment(full, cc.mtu);
  ASSERT_EQ(frags.size(), 2u);

  // Plant the spoofed fragment (matching IPID), then deliver genuine f1.
  net::ReassemblyCache cache;
  net::Ipv4Packet spoofed = crafted->fragment;
  spoofed.id = full.id;
  ASSERT_FALSE(cache.insert(spoofed, sim::Time{}));
  auto reassembled = cache.insert(frags[0], sim::Time{});
  ASSERT_TRUE(reassembled);

  // Transport layer: UDP checksum must verify (the §III-3 compensation).
  net::UdpDatagram dgram =
      net::decode_udp(reassembled->payload, kNs, kResolver);
  EXPECT_EQ(dgram.dst_port, 3333);

  // Application layer: DNS must parse; glue must now be attacker's.
  dns::DnsMessage poisoned = dns::decode_dns(dgram.payload);
  EXPECT_EQ(poisoned.id, 0x1357);  // genuine TXID preserved (from f1)
  ASSERT_EQ(poisoned.additional.size(), 3u);
  for (const auto& rr : poisoned.additional) {
    EXPECT_EQ(rr.a, kEvil);
    EXPECT_GE(rr.ttl, u32{1} << 24);  // raised TTL survives compensation
  }
  // The answer section (fragment 1) is untouched.
  ASSERT_EQ(poisoned.answers.size(), genuine.answers.size());
  for (std::size_t i = 0; i < poisoned.answers.size(); ++i) {
    if (poisoned.answers[i].type == dns::RrType::kA) {
      EXPECT_EQ(poisoned.answers[i].a, genuine.answers[i].a);
    }
  }
}

TEST(FragmentCrafter, TemplateWithDifferentRotationStillWorks) {
  // The attacker's template was fetched at a different pool-rotation
  // position than the victim's response: the second fragment (zone tail)
  // is identical, so the craft must still verify.
  dns::PoolZone::Config cfg;
  cfg.pad_txt_bytes = 80;
  cfg.nameservers = {
      {dns::DnsName::from_string("ns1.ntp.org"), kNs},
      {dns::DnsName::from_string("ns2.ntp.org"), kNs},
      {dns::DnsName::from_string("ns3.ntp.org"), kNs},
  };
  std::vector<Ipv4Addr> servers;
  for (u32 i = 1; i <= 16; ++i) servers.push_back(Ipv4Addr{0x0A0A0000 + i});
  dns::PoolZone zone(dns::DnsName::from_string("pool.ntp.org"), servers, cfg);
  dns::DnsQuestion q{dns::DnsName::from_string("pool.ntp.org"),
                     dns::RrType::kA};

  dns::DnsMessage template_msg = zone.peek_response(q);  // rotation 0
  zone.set_rotation(8);
  dns::DnsMessage victim_msg = zone.peek_response(q);    // rotation 8
  victim_msg.id = 0x9999;

  auto crafted =
      craft_spoofed_second_fragment(encode_dns(template_msg), config());
  ASSERT_TRUE(crafted);

  net::Ipv4Packet full;
  full.src = kNs;
  full.dst = kResolver;
  full.id = 7;
  full.protocol = net::kProtoUdp;
  full.payload =
      net::encode_udp(encode_dns(victim_msg), 53, 1111, kNs, kResolver);
  auto frags = net::fragment(full, 296);
  ASSERT_EQ(frags.size(), 2u);

  net::ReassemblyCache cache;
  net::Ipv4Packet spoofed = crafted->fragment;
  spoofed.id = 7;
  (void)cache.insert(spoofed, sim::Time{});
  auto reassembled = cache.insert(frags[0], sim::Time{});
  ASSERT_TRUE(reassembled);
  // Checksum still verifies despite the answers differing: they live in
  // fragment 1, which we did not touch.
  net::UdpDatagram dgram =
      net::decode_udp(reassembled->payload, kNs, kResolver);
  dns::DnsMessage poisoned = dns::decode_dns(dgram.payload);
  EXPECT_EQ(poisoned.additional[0].a, kEvil);
  EXPECT_EQ(poisoned.answers[0].a, victim_msg.answers[0].a);
}

}  // namespace
}  // namespace dnstime::attack
