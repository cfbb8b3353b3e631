#include "attack/ratelimit_abuser.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/buffer.h"
#include "ntp/server.h"
#include "obs/provenance.h"
#include "scenario/world.h"

namespace dnstime::attack {
namespace {

using scenario::World;
using scenario::WorldConfig;
using sim::Duration;

const Ipv4Addr kVictim{10, 77, 0, 1};

TEST(RateLimitAbuser, VictimBecomesLimitedAtTargetServer) {
  World world;  // all pool servers rate-limit
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));
  EXPECT_TRUE(world.pool_server(0).rate_limiter().is_limited(
      kVictim, world.loop().now()));
  EXPECT_GT(abuser.packets_spoofed(), 10u);
}

TEST(RateLimitAbuser, VictimPollsGoUnanswered) {
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  // The victim's genuine poll from its real host address gets nothing.
  auto& victim = world.add_host(kVictim);
  bool answered = false;
  u16 port = victim.stack->ephemeral_port();
  victim.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                   BufView payload) {
    try {
      if (!ntp::decode_ntp(payload).is_kod()) answered = true;
    } catch (const DecodeError&) {
    }
  });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
  world.run_for(Duration::seconds(5));
  EXPECT_FALSE(answered);
}

TEST(RateLimitAbuser, NonLimitingServerUnaffected) {
  WorldConfig wc;
  wc.rate_limit_fraction = 0.0;
  World world(wc);
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  auto& victim = world.add_host(kVictim);
  bool answered = false;
  u16 port = victim.stack->ephemeral_port();
  victim.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                   BufView) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  victim.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
  world.run_for(Duration::seconds(5));
  EXPECT_TRUE(answered) << "servers without rate limiting cannot be abused";
}

TEST(RateLimitAbuser, OtherClientsCollateralFree) {
  // The flood punishes only the spoofed victim address; an unrelated
  // client keeps getting answers.
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  Ipv4Addr target = world.pool_server_addrs()[0];
  abuser.disrupt(target);
  world.run_for(Duration::seconds(30));

  auto& bystander = world.add_host(Ipv4Addr{10, 78, 0, 1});
  bool answered = false;
  u16 port = bystander.stack->ephemeral_port();
  bystander.stack->bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                      BufView) { answered = true; });
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 5.0;
  bystander.stack->send_udp(target, port, kNtpPort, encode_ntp(query));
  world.run_for(Duration::seconds(5));
  EXPECT_TRUE(answered);
}

TEST(RateLimitAbuser, StopCeasesFlooding) {
  World world;
  RateLimitAbuser abuser(world.attacker(), kVictim);
  abuser.disrupt_all(world.pool_server_addrs());
  world.run_for(Duration::seconds(10));
  u64 sent = abuser.packets_spoofed();
  abuser.stop();
  world.run_for(Duration::seconds(10));
  EXPECT_EQ(abuser.packets_spoofed(), sent);
  EXPECT_EQ(abuser.active_targets(), 0u);
}

/// Records every packet the network delivers to one address.
struct CapturingSink : sim::PacketSink {
  std::vector<net::Ipv4Packet> packets;
  void deliver(const net::Ipv4Packet& pkt) override { packets.push_back(pkt); }
};

/// The datagram the flood must put on the wire towards `server`, encoded
/// from scratch.
Bytes fresh_flood_datagram(Ipv4Addr server) {
  ntp::NtpPacket query;
  query.mode = ntp::Mode::kClient;
  query.tx_time = 1.0;
  return net::encode_udp(encode_ntp(query), kNtpPort, kNtpPort, kVictim,
                         server)
      .to_bytes();
}

TEST(RateLimitAbuser, EveryTickSendsEachTargetsOwnWireImage) {
  BufferPool& pool = BufferPool::local();
  sim::EventLoop loop;
  sim::Network net{loop, Rng{1}};
  net::NetStack attacker{net, Ipv4Addr{6, 6, 6, 6}, net::StackConfig{},
                         Rng{2}};
  const std::vector<Ipv4Addr> servers{Ipv4Addr{192, 0, 2, 1},
                                      Ipv4Addr{192, 0, 2, 2}};
  std::vector<CapturingSink> sinks(servers.size());
  for (std::size_t i = 0; i < servers.size(); ++i) {
    net.attach(servers[i], &sinks[i]);
  }
#if DNSTIME_OBS
  obs::FlightRecorder flight;
  obs::ScopedFlightRecorder install(&flight);
#endif
  const u64 before = pool.outstanding();
  {
    RateLimitAbuser abuser(attacker, kVictim);
    abuser.disrupt_all(servers);
    loop.run_for(Duration::seconds(4));
  }
  loop.run_all();  // packets still in flight land; nothing re-arms

  // Each target's pseudo-header differs, so each keeps its own checksum.
  ASSERT_NE(fresh_flood_datagram(servers[0]), fresh_flood_datagram(servers[1]));
#if DNSTIME_OBS
  std::set<u64> stamps;
#endif
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Bytes expected = fresh_flood_datagram(servers[i]);
    ASSERT_GE(sinks[i].packets.size(), 10u);
    for (const net::Ipv4Packet& pkt : sinks[i].packets) {
      EXPECT_EQ(pkt.src, kVictim);
      EXPECT_EQ(pkt.dst, servers[i]);
      EXPECT_EQ(pkt.payload.to_bytes(), expected);
#if DNSTIME_OBS
      // send_raw stamps every packet's own handle as spoofed.
      EXPECT_TRUE(pkt.payload.origin().spoofed());
      EXPECT_TRUE(stamps.insert(pkt.payload.origin().seq).second)
          << "two packets share one provenance stamp";
#endif
    }
    sinks[i].packets.clear();
  }
  EXPECT_EQ(pool.outstanding(), before);
}

}  // namespace
}  // namespace dnstime::attack
