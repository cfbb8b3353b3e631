#include "measure/frag_scanner.h"

#include "attack/icmp_mtu_attack.h"
#include "dns/nameserver.h"

namespace dnstime::measure {

namespace {

/// One scan target: a nameserver whose stack honours (or ignores) PMTUD
/// with a given clamp, serving a padded zone so responses exceed the MTU.
struct Target {
  std::unique_ptr<net::NetStack> stack;
  std::unique_ptr<dns::Nameserver> ns;
  NameserverProfile profile;
  dns::DnsName domain;
  u16 min_seen_fragment = 0xFFFF;
  bool saw_fragments = false;
  bool saw_rrsig = false;
  bool answered = false;
};

std::unique_ptr<Target> make_target(sim::Network& net, Rng& rng,
                                    const NameserverProfile& profile,
                                    std::size_t index, u32 addr_base) {
  auto t = std::make_unique<Target>();
  t->profile = profile;
  net::StackConfig sc;
  sc.honor_icmp_frag_needed = profile.honors_pmtud;
  sc.min_pmtu = profile.min_fragment_size;
  t->stack = std::make_unique<net::NetStack>(
      net, Ipv4Addr{static_cast<u32>(addr_base + index)}, sc, rng.fork());
  t->ns = std::make_unique<dns::Nameserver>(*t->stack);
  t->domain =
      dns::DnsName::from_string("d" + std::to_string(index) + ".example");
  auto zone = std::make_shared<dns::StaticZone>(
      t->domain, profile.dnssec_signed, /*secret=*/0x5ec + index);
  zone->add(dns::make_a(t->domain, Ipv4Addr{192, 0, 2, 1}, 300));
  // Padding sized so the ~1.3 kB response fits an un-tampered 1500-byte
  // path (no natural fragmentation) but exceeds every PMTUD clamp the
  // scan can induce (1276 and below).
  zone->add(dns::make_txt(t->domain, std::string(1260, 'x'), 300));
  t->ns->add_zone(std::move(zone));
  return t;
}

NameserverProfile deterministic_nameserver(std::size_t i, std::size_t n,
                                            const DomainParams& p) {
  // Exact-fraction assignment for small populations (e.g. the 30 pool
  // nameservers), where sampling noise would swamp the headline count.
  NameserverProfile profile;
  profile.dnssec_signed =
      i >= static_cast<std::size_t>((1.0 - p.dnssec_fraction) * n);
  profile.honors_pmtud =
      i < static_cast<std::size_t>(p.fragments_fraction * n + 0.5);
  if (!profile.honors_pmtud) {
    profile.min_fragment_size = net::kEthernetMtu;
  } else if (i % 12 == 0) {
    profile.min_fragment_size = 292;
  } else {
    profile.min_fragment_size = 548;
  }
  return profile;
}

}  // namespace

FragScanResult scan_domain_fragmentation(const FragScanConfig& config) {
  Rng rng(config.seed);
  sim::EventLoop loop;
  sim::Network net(loop, rng.fork());
  net.set_default_profile(
      sim::LinkProfile{.latency = sim::Duration::millis(5)});

  FragScanResult result;
  result.domains = config.domains;

  std::vector<std::unique_ptr<Target>> targets;
  targets.reserve(config.domains);
  for (std::size_t i = 0; i < config.domains; ++i) {
    NameserverProfile profile =
        config.population.deterministic
            ? deterministic_nameserver(i, config.domains, config.population)
            : sample_nameserver(rng, config.population);
    targets.push_back(make_target(net, rng, profile, i, 0x10000000));
  }

  net::NetStack scanner(net, Ipv4Addr{203, 0, 113, 99}, net::StackConfig{},
                        rng.fork());
  // Observe every fragment the scan receives and attribute by source.
  std::unordered_map<Ipv4Addr, Target*> by_addr;
  for (auto& t : targets) by_addr[t->stack->addr()] = t.get();
  scanner.add_packet_tap([&](const net::Ipv4Packet& pkt) {
    auto it = by_addr.find(pkt.src);
    if (it == by_addr.end()) return;
    if (!pkt.is_fragment()) return;
    it->second->saw_fragments = true;
    // Only non-final fragments reveal the MTU the server fragments to;
    // the trailing fragment is just the remainder.
    if (pkt.more_fragments) {
      it->second->min_seen_fragment =
          std::min(it->second->min_seen_fragment,
                   static_cast<u16>(pkt.total_length()));
    }
  });

  // Phase 1: forged ICMP demanding MTU 68 towards every nameserver.
  for (auto& t : targets) {
    attack::force_path_mtu(scanner, t->stack->addr(), scanner.addr(),
                           net::kMinimumMtu);
  }
  loop.run_for(sim::Duration::seconds(1));

  // Phase 2: query each domain; responses reveal fragment size + RRSIG.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Target* t = targets[i].get();
    u16 port = static_cast<u16>(1024 + (i % 60000));
    scanner.bind_udp(port, [t](const net::UdpEndpoint&, u16,
                               BufView payload) {
      try {
        dns::DnsMessage resp = dns::decode_dns(payload);
        t->answered = true;
        for (const auto& rr : resp.answers) {
          if (rr.type == dns::RrType::kRrsig) t->saw_rrsig = true;
        }
      } catch (const DecodeError&) {
      }
    });
    dns::DnsMessage query;
    query.id = static_cast<u16>(i);
    // TXT probe: elicits the domain's large response (the paper inflates
    // response sizes via long subdomains / record-rich names).
    query.questions = {dns::DnsQuestion{t->domain, dns::RrType::kTxt}};
    scanner.send_udp(t->stack->addr(), port, kDnsPort, encode_dns(query));
  }
  loop.run_for(sim::Duration::seconds(3));

  for (const auto& t : targets) {
    if (t->saw_rrsig) result.dnssec_signed++;
    if (t->saw_fragments) result.fragmenting++;
    if (t->saw_fragments && !t->saw_rrsig) {
      result.vulnerable++;
      result.min_fragment_cdf.add(t->min_seen_fragment);
    }
  }
  return result;
}

PoolNsScanResult scan_pool_nameservers(std::size_t count,
                                       double frag_fraction, u64 seed) {
  // The 30 pool nameservers scanned directly, with the measured share
  // honouring PMTUD down to below 548 bytes and none serving DNSSEC.
  DomainParams params;
  params.dnssec_fraction = 0.0;
  params.fragments_fraction = frag_fraction;
  params.min548_fraction = 1.0;
  params.min292_fraction = 0.1;
  params.deterministic = true;
  FragScanConfig cfg;
  cfg.domains = count;
  cfg.population = params;
  cfg.seed = seed;
  FragScanResult scan = scan_domain_fragmentation(cfg);

  PoolNsScanResult result;
  result.nameservers = count;
  result.dnssec = scan.dnssec_signed;
  result.fragment_below_548 = static_cast<std::size_t>(
      scan.min_fragment_cdf.fraction_leq(548.0) *
      static_cast<double>(scan.min_fragment_cdf.size()));
  return result;
}

}  // namespace dnstime::measure
