// Micro-benchmarks (google-benchmark) of the attack-critical primitives:
// checksum arithmetic, wire codecs, fragment reassembly, fragment
// crafting and IPID-window construction. These bound the attacker-side
// and victim-side per-packet costs.
#include <benchmark/benchmark.h>

#include "attack/checksum_fixer.h"
#include "attack/fragment_crafter.h"
#include "dns/pool_zone.h"
#include "net/checksum.h"
#include "net/fragmentation.h"
#include "net/reassembly.h"
#include "net/udp.h"
#include "ntp/packet.h"
#include "ntp/timestamps.h"

namespace {

using namespace dnstime;

Bytes random_bytes(std::size_t n, u64 seed) {
  Rng rng{seed};
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(rng.uniform(0, 255));
  return out;
}

void BM_OnesComplementSum(benchmark::State& state) {
  Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ones_complement_sum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnesComplementSum)->Arg(64)->Arg(512)->Arg(1500);

void BM_OnesComplementSumScalar(benchmark::State& state) {
  // The pre-refactor byte-pair loop, kept as the oracle; compare against
  // BM_OnesComplementSum (8 bytes per iteration) at the same sizes.
  Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ones_complement_sum_scalar(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnesComplementSumScalar)->Arg(64)->Arg(512)->Arg(1500);

void BM_ChecksumCompensation(benchmark::State& state) {
  Bytes orig = random_bytes(64, 2);
  for (auto _ : state) {
    Bytes mutated = orig;
    mutated[10] = 0x66;
    mutated[11] = 0x66;
    benchmark::DoNotOptimize(
        attack::fix_fragment_sum(orig, mutated, 40));
  }
}
BENCHMARK(BM_ChecksumCompensation);

void BM_Ipv4EncodeDecode(benchmark::State& state) {
  net::Ipv4Packet pkt;
  pkt.src = Ipv4Addr{10, 0, 0, 1};
  pkt.dst = Ipv4Addr{10, 0, 0, 2};
  pkt.payload = random_bytes(512, 3);
  for (auto _ : state) {
    PacketBuf wire = net::encode(pkt);
    benchmark::DoNotOptimize(net::decode_ipv4(wire));
  }
}
BENCHMARK(BM_Ipv4EncodeDecode);

void BM_UdpChecksumVerify(benchmark::State& state) {
  Ipv4Addr src{10, 0, 0, 1}, dst{10, 0, 0, 2};
  PacketBuf wire = net::encode_udp(random_bytes(512, 4), 53, 3333, src, dst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_udp(wire, src, dst));
  }
}
BENCHMARK(BM_UdpChecksumVerify);

dns::DnsMessage sample_pool_response() {
  dns::PoolZone::Config cfg;
  cfg.pad_txt_bytes = 80;
  cfg.nameservers = {
      {dns::DnsName::from_string("ns1.ntp.org"), Ipv4Addr{198, 51, 100, 53}},
      {dns::DnsName::from_string("ns2.ntp.org"), Ipv4Addr{198, 51, 100, 53}},
      {dns::DnsName::from_string("ns3.ntp.org"), Ipv4Addr{198, 51, 100, 53}},
  };
  std::vector<Ipv4Addr> servers;
  for (u32 i = 1; i <= 16; ++i) servers.push_back(Ipv4Addr{0x0A0A0000 + i});
  dns::PoolZone zone(dns::DnsName::from_string("pool.ntp.org"), servers, cfg);
  return zone.peek_response(dns::DnsQuestion{
      dns::DnsName::from_string("pool.ntp.org"), dns::RrType::kA});
}

void BM_DnsEncodeDecode(benchmark::State& state) {
  dns::DnsMessage msg = sample_pool_response();
  for (auto _ : state) {
    PacketBuf wire = dns::encode_dns(msg);
    benchmark::DoNotOptimize(dns::decode_dns(wire));
  }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_FragmentCrafting(benchmark::State& state) {
  PacketBuf wire = dns::encode_dns(sample_pool_response());
  attack::CraftConfig cc;
  cc.ns_addr = Ipv4Addr{198, 51, 100, 53};
  cc.resolver_addr = Ipv4Addr{10, 53, 0, 1};
  cc.mtu = 296;
  cc.malicious_addrs = {Ipv4Addr{6, 6, 6, 53}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attack::craft_spoofed_second_fragment(wire, cc));
  }
}
BENCHMARK(BM_FragmentCrafting);

void BM_ReassemblyPoisonedPath(benchmark::State& state) {
  net::Ipv4Packet full;
  full.src = Ipv4Addr{198, 51, 100, 53};
  full.dst = Ipv4Addr{10, 53, 0, 1};
  full.id = 7;
  full.payload = random_bytes(600, 5);
  auto frags = net::fragment(full, 296);
  for (auto _ : state) {
    net::ReassemblyCache cache;
    (void)cache.insert(frags[1], sim::Time{});  // planted
    benchmark::DoNotOptimize(cache.insert(frags[0], sim::Time{}));
    benchmark::DoNotOptimize(cache.insert(frags[2], sim::Time{}));
  }
}
BENCHMARK(BM_ReassemblyPoisonedPath);

void BM_NtpPacketCodec(benchmark::State& state) {
  ntp::NtpPacket pkt;
  pkt.mode = ntp::Mode::kServer;
  pkt.stratum = 2;
  pkt.tx_time = ntp::kSimEpochNtpSeconds + 1.5;
  for (auto _ : state) {
    PacketBuf wire = ntp::encode_ntp(pkt);
    benchmark::DoNotOptimize(ntp::decode_ntp(wire));
  }
}
BENCHMARK(BM_NtpPacketCodec);

}  // namespace

BENCHMARK_MAIN();
