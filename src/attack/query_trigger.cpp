#include "attack/query_trigger.h"

#include "obs/trace.h"

namespace dnstime::attack {

SmtpServer::SmtpServer(net::NetStack& stack, Ipv4Addr resolver)
    : stack_(stack), stub_(stack, resolver) {
  stack_.bind_udp(kSmtpPort, [this](const net::UdpEndpoint& from, u16,
                                    BufView payload) {
    mails_++;
    // Greeting banner: what a port scan observes (§VIII-B3's "small
    // portscan for SMTP servers").
    static const std::string kBanner = "220 mail ready";
    stack_.send_udp(from.addr, kSmtpPort, from.port,
                    Bytes(kBanner.begin(), kBanner.end()));
    std::string domain(payload.begin(), payload.end());
    if (domain.empty()) return;  // bare probe, no message
    // Anti-spam validation: resolve the sender's domain. The result is
    // irrelevant to the attacker — the *query* is the point.
    stub_.resolve(dns::DnsName::from_string(domain), dns::RrType::kA,
                  [](const std::vector<dns::ResourceRecord>&) {});
  });
}

SmtpServer::~SmtpServer() { stack_.unbind_udp(kSmtpPort); }

void QueryTrigger::via_open_resolver(net::NetStack& attacker,
                                     Ipv4Addr resolver,
                                     const dns::DnsName& name) {
  dns::DnsMessage query;
  query.id = attacker.rng().next_u16();
  query.rd = true;
  query.questions = {dns::DnsQuestion{name, dns::RrType::kA}};
  u16 port = attacker.ephemeral_port();
  attacker.bind_udp(port, [&attacker, port](const net::UdpEndpoint&, u16,
                                            BufView) {
    attacker.unbind_udp(port);
  });
  DNSTIME_TRACE_INSTANT(attacker.now().ns(), "attack", "trigger");
  attacker.send_udp(resolver, port, kDnsPort, encode_dns(query));
}

void QueryTrigger::via_smtp(net::NetStack& attacker, Ipv4Addr smtp_host,
                            const dns::DnsName& name) {
  std::string domain = name.to_string();
  DNSTIME_TRACE_INSTANT(attacker.now().ns(), "attack", "trigger");
  attacker.send_udp(smtp_host, attacker.ephemeral_port(), kSmtpPort,
                    Bytes(domain.begin(), domain.end()));
}

}  // namespace dnstime::attack
