#include "measure/shared_resolver.h"

#include "attack/query_trigger.h"
#include "dns/nameserver.h"
#include "dns/resolver.h"

namespace dnstime::measure {

SharedResolverScanResult discover_shared_resolvers(
    const SharedResolverScanConfig& config) {
  Rng rng(config.seed);
  sim::EventLoop loop;
  sim::Network net(loop, rng.fork());
  net.set_default_profile(
      sim::LinkProfile{.latency = sim::Duration::millis(8)});

  auto profiles = sample_web_resolvers(rng, config.population);

  SharedResolverScanResult result;
  result.web_resolvers = profiles.size();

  // The scanner's token nameserver: logs which resolver queries which
  // token domain.
  net::NetStack token_ns_stack(net, Ipv4Addr{198, 51, 100, 20},
                               net::StackConfig{}, rng.fork());
  std::unordered_map<std::string, Ipv4Addr> token_seen_from;
  dns::Nameserver::Config nsc;
  nsc.query_log = [&](Ipv4Addr from, const dns::DnsName& qname) {
    if (!qname.labels().empty()) {
      token_seen_from[qname.labels().front()] = from;
    }
  };
  dns::Nameserver token_ns(token_ns_stack, nsc);
  {
    auto zone = std::make_shared<dns::StaticZone>(
        dns::DnsName::from_string("scan.example"));
    token_ns.add_zone(std::move(zone));
  }

  struct Site {
    std::unique_ptr<net::NetStack> resolver_stack;
    std::unique_ptr<dns::Resolver> resolver;
    std::unique_ptr<net::NetStack> smtp_stack;
    std::unique_ptr<attack::SmtpServer> smtp;
    WebResolverProfile profile;
    bool found_open = false;
    bool found_smtp_host = false;
    std::string token;
  };
  std::vector<std::unique_ptr<Site>> sites;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto s = std::make_unique<Site>();
    s->profile = profiles[i];
    // Each site owns a /24: resolver at .53, optional SMTP host at .25.
    u32 net24 = 0x30000000 + (static_cast<u32>(i) << 8);
    s->resolver_stack = std::make_unique<net::NetStack>(
        net, Ipv4Addr{net24 + 53}, net::StackConfig{}, rng.fork());
    dns::Resolver::Config rc;
    rc.open_to_world = s->profile.is_open;
    s->resolver = std::make_unique<dns::Resolver>(*s->resolver_stack, rc);
    s->resolver->add_zone_hint(dns::DnsName::from_string("scan.example"),
                               {token_ns_stack.addr()});
    if (s->profile.has_smtp_neighbor) {
      s->smtp_stack = std::make_unique<net::NetStack>(
          net, Ipv4Addr{net24 + 25}, net::StackConfig{}, rng.fork());
      s->smtp = std::make_unique<attack::SmtpServer>(
          *s->smtp_stack, s->resolver_stack->addr());
    }
    s->token = "t" + std::to_string(i);
    sites.push_back(std::move(s));
  }

  net::NetStack scanner(net, Ipv4Addr{203, 0, 113, 66}, net::StackConfig{},
                        rng.fork());

  // Phase 1: direct query to every resolver -> open?
  for (auto& sp : sites) {
    Site* s = sp.get();
    u16 port = scanner.ephemeral_port();
    scanner.bind_udp(port, [s, &scanner, port](const net::UdpEndpoint&, u16,
                                               BufView) {
      s->found_open = true;
      scanner.unbind_udp(port);
    });
    dns::DnsMessage q;
    q.id = scanner.rng().next_u16();
    q.rd = true;
    q.questions = {dns::DnsQuestion{
        dns::DnsName::from_string("open-" + s->token + ".scan.example"),
        dns::RrType::kA}};
    scanner.send_udp(s->resolver_stack->addr(), port, kDnsPort,
                     encode_dns(q));
  }
  loop.run_for(sim::Duration::seconds(5));

  // Phase 2: port-scan each resolver's /24 for SMTP banners.
  for (auto& sp : sites) {
    Site* s = sp.get();
    u16 port = scanner.ephemeral_port();
    scanner.bind_udp(port, [s, &scanner, port](const net::UdpEndpoint&, u16,
                                               BufView) {
      s->found_smtp_host = true;
      scanner.unbind_udp(port);
    });
    u32 net24 = s->resolver_stack->addr().value() & 0xFFFFFF00;
    for (u32 host = 1; host < 255; ++host) {
      scanner.send_udp(Ipv4Addr{net24 + host}, port, kSmtpPort, Bytes{});
    }
  }
  loop.run_for(sim::Duration::seconds(5));

  // Phase 3: test mail through every discovered SMTP host; the bounce's
  // anti-spam lookup reveals the mail host's resolver at our nameserver.
  for (auto& sp : sites) {
    Site* s = sp.get();
    if (!s->found_smtp_host) continue;
    result.smtp_hosts_found++;
    u32 net24 = s->resolver_stack->addr().value() & 0xFFFFFF00;
    attack::QueryTrigger::via_smtp(
        scanner, Ipv4Addr{net24 + 25},
        dns::DnsName::from_string(s->token + ".scan.example"));
  }
  loop.run_for(sim::Duration::seconds(5));

  // Classification: overlap token observations with the resolver list.
  for (const auto& sp : sites) {
    const Site* s = sp.get();
    bool smtp_confirmed = false;
    auto it = token_seen_from.find(s->token);
    if (it != token_seen_from.end() &&
        it->second == s->resolver_stack->addr()) {
      smtp_confirmed = true;
    }
    if (s->found_open && smtp_confirmed) {
      result.open_and_smtp++;
    } else if (s->found_open) {
      result.open++;
    } else if (smtp_confirmed) {
      result.smtp_shared++;
    } else {
      result.only_web++;
    }
  }
  return result;
}

}  // namespace dnstime::measure
