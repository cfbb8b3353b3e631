// libFuzzer harness: ReassemblyCache driven by a crafted fragment script.
//
// The input is a little op-stream (documented below) decoded into insert()
// and expire() calls — crafted overlaps, out-of-range offsets, duplicate
// offsets, MF toggles and endpoint-pair sprays all fall out of mutation.
// This is the component the paper's §III attack plants spoofed fragments
// into, and the exact code where the pre-PR5 out-of-bounds write lived.
//
// Script format, repeated until input is exhausted:
//   op byte with bit 7 set  -> expire(now += (op & 0x7f) seconds)
//   op byte with bit 7 clear -> insert a fragment:
//       [op][id_lo][off_hi][off_lo][len]([payload bytes...])
//     op bits 0..1: source address selector (spray across pairs)
//     op bit 2:     more-fragments flag
//     op bits 3..4: high bits 8..9 of the offset-units field
//     id_lo:        IPID low byte (IPID spray)
//     off:          fragment offset in 8-byte units (14-bit wire field)
//     len:          payload length; bytes beyond the input are zero-filled
//
// Invariants checked:
//   * a completed datagram's payload has the size declared by the first
//     MF=0 fragment accepted for it;
//   * pending_datagrams() never exceeds the number of inserts;
//   * expire() at +forever leaves the cache empty;
//   * expire() returns the minimum first-seen instant among the surviving
//     datagrams (mirrored here from insert() results and the overflow
//     counter), and nothing exactly when pending_datagrams() == 0;
//   * counters are monotone and completed+expired+pending stay consistent;
//   * provenance: every fragment is stamped (op bit 5 marks it spoofed)
//     and a completed datagram's merged Origin must carry the reassembled
//     flag, a sequence number issued to that (src,id) key, and the
//     spoofed flag only if a spoofed part was ever inserted for the key.
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/origin.h"
#include "net/reassembly.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  net::ReassemblyPolicy policy;
  policy.max_datagrams_per_pair = 8;  // small cap: overflow path gets cover
  net::ReassemblyCache cache(policy);

  sim::Time now;
  size_t pos = 0;
  u64 inserts = 0;

  // (src,id) -> max datagram end ever declared by an MF=0 fragment. The
  // cache's total_payload comes from one accepted MF=0 fragment, so a
  // completed datagram can never exceed this bound (tracking the max over
  // all attempts keeps the harness sound without mirroring the cache's
  // accept/reject decisions).
  std::map<std::pair<u32, u16>, std::size_t> declared;

  // Provenance bookkeeping: the stamps issued per (src,id) key. A merged
  // datagram's Origin is the dominant part's (spoofed wins), so its seq
  // must have been issued under that key and it can only be spoofed if a
  // spoofed part ever was.
  struct IssuedStamps {
    std::set<u32> seqs;
    bool any_spoofed = false;
  };
  std::map<std::pair<u32, u16>, IssuedStamps> issued;
  u32 next_seq = 0;

  // (src,id) -> first-seen instant of every datagram the cache holds. A
  // key enters when an insert neither completes it nor overflows its pair,
  // and leaves on completion or expiry.
  std::map<std::pair<u32, u16>, sim::Time> cached;
  auto check_expire = [&](sim::Time at) {
    std::optional<sim::Time> oldest = cache.expire(at);
    std::optional<sim::Time> expected;
    for (auto it = cached.begin(); it != cached.end();) {
      if (at - it->second >= policy.timeout) {
        it = cached.erase(it);
        continue;
      }
      if (!expected || it->second < *expected) expected = it->second;
      ++it;
    }
    if (oldest != expected) std::abort();  // wrong oldest survivor
    if (oldest.has_value() != (cache.pending_datagrams() != 0)) std::abort();
    if (cached.size() != cache.pending_datagrams()) std::abort();
  };

  while (pos < size) {
    u8 op = data[pos++];
    if (op & 0x80) {
      now = now + sim::Duration::seconds(op & 0x7f);
      check_expire(now);
      continue;
    }
    if (pos + 4 > size) break;
    net::Ipv4Packet frag;
    frag.src = Ipv4Addr{0x0A000001u + (op & 0x03u)};
    frag.dst = Ipv4Addr{0xC0A80001u};
    frag.protocol = net::kProtoUdp;
    frag.id = data[pos];
    frag.more_fragments = (op & 0x04) != 0;
    frag.frag_offset_units = static_cast<u16>(
        ((u16{op} & 0x18u) << 5) | (u16{data[pos + 1]} << 8) | data[pos + 2]);
    frag.frag_offset_units &= 0x1FFF;  // 13-bit wire field
    u8 len = data[pos + 3];
    pos += 4;
    Bytes payload(len, 0);
    for (std::size_t i = 0; i < len && pos + i < size; ++i) {
      payload[i] = data[pos + i];
    }
    pos += std::min<std::size_t>(len, size - pos);
    frag.payload = PacketBuf{payload};

    auto key = std::make_pair(frag.src.value(), frag.id);
    Origin origin;
    origin.ts_ns = now.ns();
    origin.seq = ++next_seq;
    origin.module = OriginModule::kAttacker;
    origin.flags = (op & 0x20) != 0 ? Origin::kSpoofed : u8{0};
    frag.payload.set_origin(origin);
    IssuedStamps& stamps = issued[key];
    stamps.seqs.insert(origin.seq);
    stamps.any_spoofed = stamps.any_spoofed || origin.spoofed();
    inserts++;
    if (!frag.more_fragments) {
      std::size_t end = frag.frag_offset_bytes() + frag.payload.size();
      auto [it, fresh] = declared.emplace(key, end);
      if (!fresh && end > it->second) it->second = end;
    }
    const u64 overflows_before = cache.evicted_overflow();
    auto done = cache.insert(frag, now);
    if (done) {
      cached.erase(key);
    } else if (cache.evicted_overflow() == overflows_before) {
      cached.emplace(key, now);  // no-op when already cached
    }
    if (done) {
      auto it = declared.find(key);
      if (it == declared.end() || done->payload.size() > it->second) {
        std::abort();  // reassembled past every declared datagram end
      }
      declared.erase(it);

      const Origin& merged = done->payload.origin();
      auto sit = issued.find(key);
      if (sit == issued.end()) std::abort();  // completed with no inserts?
      if (!merged.reassembled()) std::abort();
      if (sit->second.seqs.count(merged.seq) == 0) {
        std::abort();  // merged stamp was never issued for this key
      }
      if (merged.spoofed() && !sit->second.any_spoofed) {
        std::abort();  // spoofed taint appeared out of thin air
      }
    }
    if (cache.pending_datagrams() > inserts) std::abort();
  }

  check_expire(now + sim::Duration::hours(24 * 365));
  if (cache.pending_datagrams() != 0) std::abort();
  return 0;
}
