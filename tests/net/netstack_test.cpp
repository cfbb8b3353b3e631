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

// --- Reassembly expiry ------------------------------------------------------
// Sweeps are armed only while the cache holds something, at the instant of
// the stack's 1 s grid (anchored at construction) that a sweep on every
// grid instant would have expired the oldest datagram at.

sim::Time at(Duration d) { return sim::Time{} + d; }

/// A first fragment (MF set) that stays incomplete until it expires.
Ipv4Packet orphan_fragment(Ipv4Addr dst, u16 id) {
  Ipv4Packet frag;
  frag.src = Ipv4Addr{6, 6, 6, 6};
  frag.dst = dst;
  frag.id = id;
  frag.more_fragments = true;
  frag.payload = Bytes(64, 0xEE);
  return frag;
}

/// Delivers `frag` to `stack` at absolute time `when`, as the network would.
void plant_at(NetStack& stack, Duration when, Ipv4Packet frag) {
  stack.loop().schedule_at(at(when), [&stack, frag = std::move(frag)] {
    stack.deliver(frag);
  });
}

TEST(NetStackExpiry, OffSecondOriginKeepsTheGridOfConstruction) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  loop.run_until(at(Duration::millis(250)));
  StackConfig cfg;
  cfg.reassembly.timeout = Duration::seconds(5);
  NetStack stack{net, Ipv4Addr{10, 0, 0, 1}, cfg, Rng{2}};
  plant_at(stack, Duration::millis(3600), orphan_fragment(stack.addr(), 7));

  // Due at 8.6 s; the grid runs 1.25 s, 2.25 s, ... so 9.25 s expires it.
  loop.run_until(at(Duration::millis(9250) - Duration::nanos(1)));
  EXPECT_EQ(stack.reassembly_cache().pending_datagrams(), 1u);
  loop.run_until(at(Duration::millis(9250)));
  EXPECT_EQ(stack.reassembly_cache().pending_datagrams(), 0u);
  EXPECT_EQ(stack.reassembly_cache().expired(), 1u);
  EXPECT_EQ(loop.pending(), 0u);  // an empty cache arms nothing
}

TEST(NetStackExpiry, IdleStacksScheduleNothing) {
  TwoHosts h;
  EXPECT_EQ(h.loop.pending(), 0u);
  h.loop.run_all();  // returns: no sweep re-arms forever

  // Unfragmented traffic never touches the reassembly cache.
  bool got = false;
  h.b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView) { got = true; });
  h.a.send_udp(h.b.addr(), 4444, 53, Bytes{1, 2, 3});
  h.loop.run_all();
  EXPECT_TRUE(got);
  EXPECT_EQ(h.loop.pending(), 0u);
}

TEST(NetStackExpiry, CompletedDatagramLeavesOneSweepThatExpiresNothing) {
  TwoHosts h;
  std::size_t got = 0;
  h.b.bind_udp(53, [&](const UdpEndpoint&, u16, BufView p) { got = p.size(); });
  h.a.send_udp(h.b.addr(), 1, 53, Bytes(4000, 0xAB));
  h.loop.run_for(Duration::seconds(1));
  ASSERT_EQ(got, 4000u);
  EXPECT_EQ(h.b.reassembly_cache().pending_datagrams(), 0u);
  EXPECT_LE(h.loop.pending(), 1u);

  h.loop.run_all();
  EXPECT_EQ(h.b.reassembly_cache().expired(), 0u);
  EXPECT_EQ(h.loop.pending(), 0u);
}

TEST(NetStackExpiry, SweepWithSurvivorsRearmsForTheOldest) {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  StackConfig cfg;
  cfg.reassembly.timeout = Duration::seconds(5);
  NetStack stack{net, Ipv4Addr{10, 0, 0, 1}, cfg, Rng{2}};
  plant_at(stack, Duration::millis(1500), orphan_fragment(stack.addr(), 1));
  plant_at(stack, Duration::millis(3200), orphan_fragment(stack.addr(), 2));
  plant_at(stack, Duration::millis(3900), orphan_fragment(stack.addr(), 3));
  const ReassemblyCache& cache = stack.reassembly_cache();

  // The first is due at 6.5 s and goes at 7 s; the sweep re-arms once.
  loop.run_until(at(Duration::seconds(7)));
  EXPECT_EQ(cache.pending_datagrams(), 2u);
  EXPECT_EQ(loop.pending(), 1u);
  // The other two are due at 8.2 s and 8.9 s: both go at 9 s.
  loop.run_until(at(Duration::seconds(9) - Duration::nanos(1)));
  EXPECT_EQ(cache.pending_datagrams(), 2u);
  loop.run_until(at(Duration::seconds(9)));
  EXPECT_EQ(cache.pending_datagrams(), 0u);
  EXPECT_EQ(cache.expired(), 3u);
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace dnstime::net
