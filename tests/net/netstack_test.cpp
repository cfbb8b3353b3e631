#include "net/netstack.h"

#include <gtest/gtest.h>

namespace dnstime::net {
namespace {

using sim::Duration;

struct TwoHosts {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  NetStack a{net, Ipv4Addr{10, 0, 0, 1}, StackConfig{}, Rng{2}};
  NetStack b{net, Ipv4Addr{10, 0, 0, 2}, StackConfig{}, Rng{3}};
};

TEST(NetStack, UdpDelivery) {
  TwoHosts h;
  Bytes got;
  UdpEndpoint from{};
  h.b.bind_udp(53, [&](const UdpEndpoint& f, u16, BufView p) {
    from = f;
    got = p.to_bytes();
  });
  h.a.send_udp(h.b.addr(), 4444, 53, Bytes{1, 2, 3});
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(got, (Bytes{1, 2, 3}));
  EXPECT_EQ(from.addr, h.a.addr());
  EXPECT_EQ(from.port, 4444);
}

TEST(NetStack, LargeDatagramFragmentsAndReassembles) {
  TwoHosts h;
  Bytes got;
  h.b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView p) { got = p.to_bytes(); });
  Bytes payload(4000, 0xAB);
  h.a.send_udp(h.b.addr(), 1, 53, payload);
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(got.size(), 4000u);
  EXPECT_GT(h.b.fragments_rx(), 1u);
}

TEST(NetStack, IcmpFragNeededLowersPathMtu) {
  TwoHosts h;
  EXPECT_EQ(h.a.path_mtu(h.b.addr()), kEthernetMtu);
  // Forged ICMP claiming packets a->b need MTU 296; sent by an off-path
  // attacker c, the netstack accepts it because orig_src matches a.
  NetStack attacker{h.net, Ipv4Addr{6, 6, 6, 6}, StackConfig{}, Rng{4}};
  attacker.send_raw(make_frag_needed_packet(attacker.addr(), h.a.addr(),
                                            h.a.addr(), h.b.addr(), 296));
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(h.a.path_mtu(h.b.addr()), 296);
}

TEST(NetStack, IcmpWithWrongOriginalSourceIgnored) {
  TwoHosts h;
  NetStack attacker{h.net, Ipv4Addr{6, 6, 6, 6}, StackConfig{}, Rng{4}};
  attacker.send_raw(make_frag_needed_packet(
      attacker.addr(), h.a.addr(), Ipv4Addr{9, 9, 9, 9}, h.b.addr(), 296));
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(h.a.path_mtu(h.b.addr()), kEthernetMtu);
}

TEST(NetStack, MinPmtuClampsIcmpRequest) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  StackConfig cfg;
  cfg.min_pmtu = 548;  // stack refuses to fragment below 548
  NetStack a{net, Ipv4Addr{10, 0, 0, 1}, cfg, Rng{2}};
  NetStack attacker{net, Ipv4Addr{6, 6, 6, 6}, StackConfig{}, Rng{4}};
  attacker.send_raw(make_frag_needed_packet(
      attacker.addr(), a.addr(), a.addr(), Ipv4Addr{10, 0, 0, 2}, 68));
  loop.run_for(Duration::seconds(1));
  EXPECT_EQ(a.path_mtu(Ipv4Addr{10, 0, 0, 2}), 548);
}

TEST(NetStack, PmtudDisabledIgnoresIcmp) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  StackConfig cfg;
  cfg.honor_icmp_frag_needed = false;
  NetStack a{net, Ipv4Addr{10, 0, 0, 1}, cfg, Rng{2}};
  NetStack attacker{net, Ipv4Addr{6, 6, 6, 6}, StackConfig{}, Rng{4}};
  attacker.send_raw(make_frag_needed_packet(
      attacker.addr(), a.addr(), a.addr(), Ipv4Addr{10, 0, 0, 2}, 296));
  loop.run_for(Duration::seconds(1));
  EXPECT_EQ(a.path_mtu(Ipv4Addr{10, 0, 0, 2}), kEthernetMtu);
}

TEST(NetStack, FragmentRejectionPolicyDropsFragments) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  StackConfig no_frags;
  no_frags.accept_fragments = false;
  NetStack a{net, Ipv4Addr{10, 0, 0, 1}, StackConfig{}, Rng{2}};
  NetStack b{net, Ipv4Addr{10, 0, 0, 2}, no_frags, Rng{3}};
  bool got = false;
  b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView) { got = true; });
  Bytes payload(4000, 1);
  a.send_udp(b.addr(), 1, 53, payload);
  loop.run_for(Duration::seconds(1));
  EXPECT_FALSE(got);
  EXPECT_GT(b.fragments_dropped(), 0u);
}

TEST(NetStack, TinyFirstFragmentFilter) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  StackConfig filter;
  filter.min_first_fragment_size = 580;  // rejects "tiny"/"small" fragments
  NetStack a{net, Ipv4Addr{10, 0, 0, 1}, StackConfig{}, Rng{2}};
  NetStack b{net, Ipv4Addr{10, 0, 0, 2}, filter, Rng{3}};
  bool got = false;
  b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView) { got = true; });
  a.send_udp_fragmented(b.addr(), 1, 53, Bytes(700, 1), 296);
  loop.run_for(Duration::seconds(1));
  EXPECT_FALSE(got);

  a.send_udp_fragmented(b.addr(), 1, 53, Bytes(1300, 1), 1280);
  loop.run_for(Duration::seconds(1));
  EXPECT_TRUE(got);
}

TEST(NetStack, ForcedFragmentationAlwaysSplits) {
  TwoHosts h;
  Bytes got;
  h.b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView p) { got = p.to_bytes(); });
  // 100-byte payload fits any MTU but must still arrive in >= 2 fragments.
  h.a.send_udp_fragmented(h.b.addr(), 1, 53, Bytes(100, 7), 1500);
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(got.size(), 100u);
  EXPECT_GE(h.b.fragments_rx(), 2u);
}

TEST(NetStack, GlobalSequentialIpidIncrements) {
  TwoHosts h;
  u16 first = h.a.current_ipid();
  h.a.send_udp(h.b.addr(), 1, 2, Bytes{1});
  h.a.send_udp(Ipv4Addr{99, 9, 9, 9}, 1, 2, Bytes{1});  // other destination
  h.a.send_udp(h.b.addr(), 1, 2, Bytes{1});
  EXPECT_EQ(h.a.current_ipid(), first + 3);  // one counter for all dsts
}

TEST(NetStack, SpoofedRawPacketCarriesForgedSource) {
  TwoHosts h;
  UdpEndpoint from{};
  h.b.bind_udp(123, [&](const UdpEndpoint& f, u16, BufView) { from = f; });
  NetStack attacker{h.net, Ipv4Addr{6, 6, 6, 6}, StackConfig{}, Rng{4}};
  Ipv4Packet pkt;
  pkt.src = h.a.addr();  // forged: claims to be host a
  pkt.dst = h.b.addr();
  pkt.protocol = kProtoUdp;
  pkt.payload = encode_udp({42}, 123, 123, h.a.addr(), h.b.addr());
  attacker.send_raw(pkt);
  h.loop.run_for(Duration::seconds(1));
  EXPECT_EQ(from.addr, h.a.addr());  // victim believes it came from a
}

}  // namespace
}  // namespace dnstime::net
