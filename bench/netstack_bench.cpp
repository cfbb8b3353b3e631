// Packet-path microbenchmark: the pooled zero-copy packet path (PacketBuf
// payloads, header prepend into headroom, fragment slicing, pooled
// reassembly) on the three shapes the paper's campaigns hammer:
//
//   flood             unfragmented small datagrams, serialize -> deliver ->
//                     checksum-verify -> parse (NTP mode-3 floods,
//                     rate-limit probes — the single hottest pattern);
//   fragment_spray    a large datagram fragmented at the attack MTU, every
//                     fragment through the reassembly cache, reassembled
//                     and parsed (the §III fragment-spray path);
//   request_response  small query out, fragmented response back through
//                     reassembly (the resolver/nameserver transaction).
//
// Results go to stdout and to a JSON file (default BENCH_netstack.json)
// with the same shape as BENCH_eventloop.json (hot_path.h), uploaded and
// overhead-gated by the CI release-bench job. Absolute per-layer timings
// of real campaigns live in perfbench/.
#include <cstdlib>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "hot_path.h"
#include "net/fragmentation.h"
#include "net/reassembly.h"
#include "net/udp.h"
#include "obs/provenance.h"

namespace dnstime::bench {
namespace {

constexpr Ipv4Addr kSrc{198, 51, 100, 53};
constexpr Ipv4Addr kDst{10, 53, 0, 1};

Bytes make_pattern(std::size_t n, u64 seed) {
  Rng rng{seed};
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(rng.uniform(0, 255));
  return out;
}

net::Ipv4Packet make_udp_packet(std::span<const u8> pattern, u16 id) {
  ByteWriter w;
  w.write_bytes(pattern);
  net::Ipv4Packet pkt;
  pkt.src = kSrc;
  pkt.dst = kDst;
  pkt.id = id;
  pkt.payload =
      net::encode_udp(std::move(w).take_buf(), 123, 123, kSrc, kDst);
  // No-op unless --flight-recorder installed one; with it, every packet
  // exercises the provenance stamp path the overhead gate measures.
  DNSTIME_PROV_STAMP(pkt.payload, 0, OriginModule::kAttacker, 0);
  return pkt;
}

std::size_t parse(const net::Ipv4Packet& pkt) {
  return net::decode_udp(pkt.payload, pkt.src, pkt.dst).payload.size();
}

/// Unfragmented datagram: serialize, deliver, verify + parse.
u64 flood(u64 iterations, std::span<const u8> pattern) {
  u64 packets = 0;
  std::size_t consumed = 0;
  for (u64 i = 0; i < iterations; ++i) {
    auto pkt = make_udp_packet(pattern, static_cast<u16>(i));
    consumed += parse(pkt);
    packets++;
  }
  if (consumed == 0) std::abort();  // defeat over-optimisation
  return packets;
}

/// Large datagram fragmented at `mtu`; every fragment through the
/// reassembly cache; the completed datagram parsed.
u64 fragment_spray(u64 iterations, std::span<const u8> pattern, u16 mtu) {
  net::ReassemblyCache cache;
  u64 packets = 0;
  std::size_t consumed = 0;
  for (u64 i = 0; i < iterations; ++i) {
    auto pkt = make_udp_packet(pattern, static_cast<u16>(i));
    for (auto& frag : net::fragment(pkt, mtu)) {
      packets++;
      if (auto full = cache.insert(frag, sim::Time{})) {
        consumed += parse(*full);
      }
    }
  }
  if (consumed == 0) std::abort();
  return packets;
}

/// Small query out; fragmented response back through reassembly.
u64 request_response(u64 iterations, std::span<const u8> query,
                     std::span<const u8> response, u16 mtu) {
  net::ReassemblyCache cache;
  u64 packets = 0;
  std::size_t consumed = 0;
  for (u64 i = 0; i < iterations; ++i) {
    auto q = make_udp_packet(query, static_cast<u16>(2 * i));
    consumed += parse(q);
    packets++;
    auto r = make_udp_packet(response, static_cast<u16>(2 * i + 1));
    for (auto& frag : net::fragment(r, mtu)) {
      packets++;
      if (auto full = cache.insert(frag, sim::Time{})) {
        consumed += parse(*full);
      }
    }
  }
  if (consumed == 0) std::abort();
  return packets;
}

}  // namespace
}  // namespace dnstime::bench

int main(int argc, char** argv) {
  using namespace dnstime;
  using namespace dnstime::bench;

  // With --flight-recorder the packet path runs exactly as a trial does
  // under the always-on recorder: every packet stamped, every completed
  // reassembly recorded into the ring.
  // Two workloads run at scale / 4, so --scale below 4 would leave them
  // with nothing to do.
  HotPathBench bench("netstack", "packets", 400'000, /*min_scale=*/4);
  if (!bench.parse(argc, argv)) return 2;
  const u64 scale = bench.scale();

  // 48 B = an NTP mode-3 query; 1172 B at MTU 296 = the attack's fragmented
  // DNS response shape (5 fragments); 64 B / 900 B at MTU 576 = a DNS
  // transaction with a fragmented answer.
  Bytes flood_pattern = make_pattern(48, 1);
  Bytes spray_pattern = make_pattern(1172, 2);
  Bytes query_pattern = make_pattern(64, 3);
  Bytes response_pattern = make_pattern(900, 4);

  bench.run("flood", [&] { return flood(scale, flood_pattern); });
  bench.run("fragment_spray",
            [&] { return fragment_spray(scale / 4, spray_pattern, 296); });
  bench.run("request_response", [&] {
    return request_response(scale / 4, query_pattern, response_pattern, 576);
  });
  return bench.finish();
}
