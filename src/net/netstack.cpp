#include "net/netstack.h"

#include <algorithm>

#include "common/log.h"
#include "obs/counters.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace dnstime::net {

NetStack::NetStack(sim::Network& net, Ipv4Addr addr, StackConfig config,
                   Rng rng)
    : net_(net),
      addr_(addr),
      config_(config),
      rng_(std::move(rng)),
      reasm_(config.reassembly),
      sweep_origin_(net.loop().now()) {
  ipid_global_ = rng_.next_u16();
  net_.attach(addr_, this);
}

NetStack::~NetStack() {
  expiry_event_.cancel();
  net_.detach(addr_);
  // Fold the per-stack hot-path counters into the process registry once,
  // at teardown — one macro site per counter instead of one per packet.
  DNSTIME_COUNT_ADD("net.udp_rx", udp_rx_);
  DNSTIME_COUNT_ADD("net.udp_checksum_failures", udp_bad_csum_);
  DNSTIME_COUNT_ADD("net.fragments_rx", fragments_rx_);
  DNSTIME_COUNT_ADD("net.fragments_dropped", fragments_dropped_);
  DNSTIME_COUNT_ADD("net.packets_tx", packets_tx_);
  DNSTIME_COUNT_ADD("net.fragments_tx", fragments_tx_);
  DNSTIME_COUNT_ADD("net.datagrams_fragmented", datagrams_fragmented_);
  DNSTIME_COUNT_ADD("net.reasm_completed", reasm_.completed());
  DNSTIME_COUNT_ADD("net.reasm_evicted_overflow", reasm_.evicted_overflow());
  DNSTIME_COUNT_ADD("net.reasm_expired", reasm_.expired());
}

void NetStack::arm_expiry(sim::Time oldest_first_seen) {
  // Reassembly-cache sweeps sit on a 1 s grid anchored at the stack's
  // construction. Only the grid instant that can expire the oldest cached
  // datagram is armed: the first one strictly after now and no earlier
  // than its deadline, which is the instant a sweep on every grid
  // instant would have expired it (src/net/README.md, "Reassembly
  // expiry").
  const sim::Duration grid = sim::Duration::seconds(1);
  const sim::Time due =
      std::max(oldest_first_seen + config_.reassembly.timeout,
               now() + sim::Duration::nanos(1));
  const i64 since_origin = (due - sweep_origin_).ns();
  const i64 k = since_origin / grid.ns() + (since_origin % grid.ns() != 0);
  expiry_event_ = loop().schedule_at(sweep_origin_ + grid * k, [this] {
    if (auto oldest = reasm_.expire(now())) arm_expiry(*oldest);
  });
}

void NetStack::bind_udp(u16 port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void NetStack::unbind_udp(u16 port) { udp_handlers_.erase(port); }

u16 NetStack::ephemeral_port() {
  for (;;) {
    u16 port = static_cast<u16>(rng_.uniform(1024, 65535));
    if (!udp_handlers_.contains(port)) return port;
  }
}

u16 NetStack::path_mtu(Ipv4Addr dst) const {
  auto it = path_mtu_.find(dst);
  return it == path_mtu_.end() ? config_.default_mtu : it->second;
}

u16 NetStack::next_ipid(Ipv4Addr dst) {
  switch (config_.ipid_mode) {
    case IpidMode::kGlobalSequential:
      return ipid_global_++;
    case IpidMode::kPerDestination: {
      auto [it, inserted] = ipid_per_dst_.try_emplace(dst, rng_.next_u16());
      return it->second++;
    }
    case IpidMode::kRandom:
      return rng_.next_u16();
  }
  return 0;
}

void NetStack::send_udp(Ipv4Addr dst, u16 src_port, u16 dst_port,
                        PacketBuf payload) {
  Ipv4Packet pkt;
  pkt.src = addr_;
  pkt.dst = dst;
  pkt.id = next_ipid(dst);
  pkt.protocol = kProtoUdp;
  pkt.payload =
      encode_udp(std::move(payload), src_port, dst_port, addr_, dst);
  DNSTIME_PROV_STAMP(pkt.payload, now().ns(), config_.origin_module, 0);
  u16 mtu = path_mtu(dst);
  if (pkt.total_length() <= mtu) {
    // Common case: no fragmentation, no fragment-vector allocation.
    packets_tx_++;
    net_.send(std::move(pkt));
    return;
  }
  datagrams_fragmented_++;
  for (auto& frag : fragment(pkt, mtu)) {
    packets_tx_++;
    fragments_tx_++;
    net_.send(std::move(frag));
  }
}

void NetStack::send_udp_fragmented(Ipv4Addr dst, u16 src_port, u16 dst_port,
                                   PacketBuf payload, u16 mtu) {
  Ipv4Packet pkt;
  pkt.src = addr_;
  pkt.dst = dst;
  pkt.id = next_ipid(dst);
  pkt.protocol = kProtoUdp;
  pkt.payload =
      encode_udp(std::move(payload), src_port, dst_port, addr_, dst);
  DNSTIME_PROV_STAMP(pkt.payload, now().ns(), config_.origin_module, 0);
  // Force at least two fragments even when the datagram would fit: split
  // at an 8-byte boundary strictly inside the payload.
  u16 effective = mtu;
  if (pkt.total_length() <= mtu) {
    auto cap = static_cast<std::size_t>(pkt.payload.size() >= 16
                                            ? (pkt.payload.size() / 2) / 8 * 8
                                            : 8);
    effective = static_cast<u16>(kIpv4HeaderSize + std::max<std::size_t>(cap, 8));
  }
  datagrams_fragmented_++;
  for (auto& frag : fragment(pkt, effective)) {
    packets_tx_++;
    fragments_tx_++;
    net_.send(std::move(frag));
  }
}

void NetStack::send_raw(Ipv4Packet pkt) {
  // Raw injection is the spoofing primitive: stamp the payload as spoofed
  // and, for fragments, record the chain's "spoofed fragment planted"
  // event (the crafted second fragments of the paper's spray).
  DNSTIME_PROV_STAMP(pkt.payload, now().ns(), config_.origin_module,
                     Origin::kSpoofed);
#if DNSTIME_OBS
  if (pkt.is_fragment()) {
    DNSTIME_PROV_EVENT(spoofed_inject(now().ns(), pkt.payload.origin(),
                                      pkt.id, pkt.frag_offset_units));
  }
#endif
  packets_tx_++;
  net_.send(std::move(pkt));
}

u64 NetStack::add_packet_tap(PacketTap tap) {
  u64 token = next_tap_token_++;
  taps_.emplace(token, std::move(tap));
  return token;
}

void NetStack::remove_packet_tap(u64 token) { taps_.erase(token); }

void NetStack::deliver(const Ipv4Packet& pkt) {
  if (pkt.dst != addr_) return;  // not ours (defensive; network routes by dst)
  if (!taps_.empty()) {
    // Snapshot so a tap may remove itself (or its owner) during delivery.
    std::vector<PacketTap> taps;
    taps.reserve(taps_.size());
    for (const auto& [token, tap] : taps_) taps.push_back(tap);
    for (const auto& tap : taps) tap(pkt);
  }

  if (pkt.is_fragment()) {
    fragments_rx_++;
    if (!config_.accept_fragments) {
      fragments_dropped_++;
      return;
    }
    if (pkt.frag_offset_units == 0 && config_.min_first_fragment_size > 0 &&
        pkt.total_length() < config_.min_first_fragment_size) {
      // "Tiny fragment" filter: reject datagrams whose leading fragment is
      // suspiciously small (Google-resolver-style policy from Table V).
      fragments_dropped_++;
      return;
    }
    auto full = reasm_.insert(pkt, now());
    // No sweep armed means the cache was empty, so whatever it holds now
    // was first seen now.
    if (reasm_.pending_datagrams() != 0 && !expiry_event_.valid()) {
      arm_expiry(now());
    }
    if (full) handle_transport(*full);
    return;
  }
  handle_transport(pkt);
}

void NetStack::handle_transport(const Ipv4Packet& pkt) {
  if (pkt.protocol == kProtoIcmp) {
    handle_icmp(pkt);
    return;
  }
  if (pkt.protocol != kProtoUdp) return;
  UdpDatagram dgram;
  try {
    dgram = decode_udp(pkt.payload, pkt.src, pkt.dst);
  } catch (const DecodeError&) {
    // A reassembled datagram with a forged fragment that was not checksum
    // compensated dies here — the §III-3 hurdle.
    udp_bad_csum_++;
    return;
  }
  udp_rx_++;
  auto it = udp_handlers_.find(dgram.dst_port);
  if (it == udp_handlers_.end()) return;
  // Copy the handler before invoking: handlers routinely unbind their own
  // port mid-call (one-shot transactions), which would otherwise destroy
  // the executing lambda.
  UdpHandler handler = it->second;
  handler(UdpEndpoint{pkt.src, dgram.src_port}, dgram.dst_port,
          BufView(dgram.payload));
}

void NetStack::handle_icmp(const Ipv4Packet& pkt) {
  if (!config_.honor_icmp_frag_needed) return;
  IcmpFragNeeded msg;
  try {
    msg = decode_icmp_frag_needed(pkt.payload);
  } catch (const DecodeError&) {
    return;
  }
  // Only react if the embedded original packet claims to originate from us;
  // that is the only validation a typical stack performs, and the attacker
  // can trivially satisfy it (§III-1).
  if (msg.orig_src != addr_) return;
  u16 mtu = std::max(msg.mtu, config_.min_pmtu);
  if (mtu >= config_.default_mtu) return;
  path_mtu_[msg.orig_dst] = mtu;
  DNSTIME_TRACE_INSTANT(now().ns(), "net", "pmtu-reduced", mtu);
  DNSTIME_PROV_EVENT(pmtu_reduced(now().ns(), config_.origin_module, mtu,
                                  msg.orig_dst.value()));
  DNSTIME_LOG(kDebug, "netstack", addr_.to_string(), " PMTU to ",
              msg.orig_dst.to_string(), " reduced to ", mtu);
}

}  // namespace dnstime::net
