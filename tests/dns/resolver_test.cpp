#include "dns/resolver.h"

#include <gtest/gtest.h>

#include "dns/nameserver.h"
#include "dns/pool_zone.h"

namespace dnstime::dns {
namespace {

using sim::Duration;

/// A small "internet": one authoritative NS, one recursive resolver, one
/// client host with a stub resolver.
struct World {
  sim::EventLoop loop;
  sim::Network net{loop, Rng{11}};
  net::NetStack ns_stack{net, Ipv4Addr{198, 51, 100, 1}, net::StackConfig{},
                         Rng{12}};
  net::NetStack res_stack{net, Ipv4Addr{10, 0, 0, 53}, net::StackConfig{},
                          Rng{13}};
  net::NetStack client_stack{net, Ipv4Addr{10, 0, 0, 7}, net::StackConfig{},
                             Rng{14}};
  Nameserver ns{ns_stack};
  Resolver resolver;
  StubResolver stub{client_stack, res_stack.addr()};

  explicit World(Resolver::Config cfg = {}) : resolver(res_stack, cfg) {
    resolver.add_zone_hint(DnsName::from_string("example"),
                           {ns_stack.addr()});
  }
};

std::shared_ptr<StaticZone> example_zone() {
  auto zone = std::make_shared<StaticZone>(DnsName::from_string("example"));
  zone->add(make_a(DnsName::from_string("www.example"),
                   Ipv4Addr{203, 0, 113, 80}, 300));
  return zone;
}

TEST(Resolver, RecursiveLookupThroughUpstream) {
  World w;
  w.ns.add_zone(example_zone());
  std::vector<ResourceRecord> got;
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA,
                 [&](const std::vector<ResourceRecord>& a) { got = a; });
  w.loop.run_for(Duration::seconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, (Ipv4Addr{203, 0, 113, 80}));
  EXPECT_EQ(w.resolver.upstream_queries(), 1u);
}

TEST(Resolver, SecondLookupServedFromCache) {
  World w;
  w.ns.add_zone(example_zone());
  int done = 0;
  auto cb = [&](const std::vector<ResourceRecord>&) { done++; };
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA, cb);
  w.loop.run_for(Duration::seconds(5));
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA, cb);
  w.loop.run_for(Duration::seconds(5));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.resolver.upstream_queries(), 1u);
  EXPECT_EQ(w.resolver.cache_hits(), 1u);
}

TEST(Resolver, RdZeroAnswersOnlyFromCache) {
  World w;
  w.ns.add_zone(example_zone());

  // RD=0 while not cached: no answer records, and no upstream query.
  DnsMessage probe;
  probe.id = 99;
  probe.rd = false;
  probe.questions = {
      DnsQuestion{DnsName::from_string("www.example"), RrType::kA}};
  std::vector<std::size_t> answer_counts;
  u16 port = w.client_stack.ephemeral_port();
  w.client_stack.bind_udp(port, [&](const net::UdpEndpoint&, u16,
                                    BufView payload) {
    answer_counts.push_back(decode_dns(payload).answers.size());
  });
  w.client_stack.send_udp(w.res_stack.addr(), port, kDnsPort,
                          encode_dns(probe));
  w.loop.run_for(Duration::seconds(2));
  ASSERT_EQ(answer_counts.size(), 1u);
  EXPECT_EQ(answer_counts[0], 0u);
  EXPECT_EQ(w.resolver.upstream_queries(), 0u);

  // Fill the cache with an RD=1 lookup, then probe again.
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA,
                 [](const std::vector<ResourceRecord>&) {});
  w.loop.run_for(Duration::seconds(5));
  w.client_stack.send_udp(w.res_stack.addr(), port, kDnsPort,
                          encode_dns(probe));
  w.loop.run_for(Duration::seconds(2));
  ASSERT_EQ(answer_counts.size(), 2u);
  EXPECT_EQ(answer_counts[1], 1u);  // now cached -> answered with RD=0
}

TEST(Resolver, TimeoutYieldsEmptyAnswer) {
  World w;  // note: no zone added -> upstream never answers... but the NS
            // would answer REFUSED. Use an unreachable upstream instead.
  Resolver::Config cfg;
  net::NetStack res2{w.net, Ipv4Addr{10, 0, 0, 54}, net::StackConfig{},
                     Rng{15}};
  Resolver dead(res2, cfg);
  dead.add_zone_hint(DnsName::from_string("example"),
                     {Ipv4Addr{192, 0, 2, 254}});  // black hole
  StubResolver stub{w.client_stack, res2.addr()};
  std::optional<std::size_t> got;
  stub.resolve(DnsName::from_string("www.example"), RrType::kA,
               [&](const std::vector<ResourceRecord>& a) { got = a.size(); },
               Duration::seconds(10));
  w.loop.run_for(Duration::seconds(20));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0u);
}

TEST(Resolver, SpoofedResponseWithWrongTxidRejected) {
  World w;
  w.ns.add_zone(example_zone());
  // Off-path attacker floods responses with guessed TXIDs from the real
  // NS address — but to the wrong (unknown) port, so they never land.
  net::NetStack attacker{w.net, Ipv4Addr{6, 6, 6, 6}, net::StackConfig{},
                         Rng{66}};
  for (u16 guess = 0; guess < 200; ++guess) {
    DnsMessage forged;
    forged.id = guess;
    forged.qr = true;
    forged.questions = {
        DnsQuestion{DnsName::from_string("www.example"), RrType::kA}};
    forged.answers.push_back(
        make_a(DnsName::from_string("www.example"), Ipv4Addr{6, 6, 6, 6}, 300));
    net::Ipv4Packet pkt;
    pkt.src = w.ns_stack.addr();  // spoofed source
    pkt.dst = w.res_stack.addr();
    pkt.protocol = net::kProtoUdp;
    pkt.payload = net::encode_udp(encode_dns(forged), kDnsPort,
                                  static_cast<u16>(1024 + guess),
                                  w.ns_stack.addr(), w.res_stack.addr());
    attacker.send_raw(pkt);
  }
  std::vector<ResourceRecord> got;
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA,
                 [&](const std::vector<ResourceRecord>& a) { got = a; });
  w.loop.run_for(Duration::seconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, (Ipv4Addr{203, 0, 113, 80}));  // genuine answer won
}

TEST(Resolver, CachedDelegationOverridesHints) {
  World w;
  // Seed the cache with a delegation for example -> evil NS.
  net::NetStack evil_stack{w.net, Ipv4Addr{6, 6, 6, 1}, net::StackConfig{},
                           Rng{17}};
  Nameserver evil{evil_stack};
  auto zone = std::make_shared<StaticZone>(DnsName::from_string("example"));
  zone->add(make_a(DnsName::from_string("www.example"), Ipv4Addr{6, 6, 6, 6},
                   300));
  evil.add_zone(zone);

  w.ns.add_zone(example_zone());
  auto ns_name = DnsName::from_string("ns.example");
  w.resolver.cache().insert(
      DnsName::from_string("example"), RrType::kNs,
      {make_ns(DnsName::from_string("example"), ns_name, 86400)},
      w.loop.now());
  w.resolver.cache().insert(ns_name, RrType::kA,
                            {make_a(ns_name, evil_stack.addr(), 86400)},
                            w.loop.now());

  std::vector<ResourceRecord> got;
  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA,
                 [&](const std::vector<ResourceRecord>& a) { got = a; });
  w.loop.run_for(Duration::seconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].a, (Ipv4Addr{6, 6, 6, 6}));  // went to the evil NS
}

TEST(Resolver, OutOfBailiwickRecordsNotCached) {
  World w;
  auto zone = std::make_shared<StaticZone>(DnsName::from_string("example"));
  zone->add(make_a(DnsName::from_string("www.example"),
                   Ipv4Addr{203, 0, 113, 80}, 300));
  // Malicious extra record for an unrelated domain.
  zone->add(make_a(DnsName::from_string("www.example"),
                   Ipv4Addr{203, 0, 113, 81}, 300));
  w.ns.add_zone(zone);
  // Tamper: nameserver also returns a record for pool.ntp.org.
  auto evil_zone = std::make_shared<StaticZone>(DnsName::from_string("example"));
  (void)evil_zone;

  w.stub.resolve(DnsName::from_string("www.example"), RrType::kA,
                 [](const std::vector<ResourceRecord>&) {});
  w.loop.run_for(Duration::seconds(5));
  EXPECT_FALSE(w.resolver.cache().contains(
      DnsName::from_string("pool.ntp.org"), RrType::kA, w.loop.now()));
}

}  // namespace
}  // namespace dnstime::dns
