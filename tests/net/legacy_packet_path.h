// FROZEN pre-refactor fragmentation and reassembly (the copy path before
// pooled buffers) — do not "improve".
//
// A faithful, self-contained copy of the Bytes-based Ipv4Packet,
// fragment() and ReassemblyCache as they stood before the pooled-buffer
// refactor: per-fragment payload copies, a cache that stores payload
// copies and assembles via zero-fill + copy. buffer_path_test.cpp uses it
// as the behavioural oracle for the zero-copy path in src/net.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/time.h"

namespace dnstime::legacy {

using Bytes = std::vector<u8>;

class LegacyDecodeError : public std::runtime_error {
 public:
  explicit LegacyDecodeError(const std::string& what)
      : std::runtime_error(what) {}
};

// --- IPv4 -------------------------------------------------------------------

inline constexpr u8 kProtoUdp = 17;
inline constexpr std::size_t kIpv4HeaderSize = 20;

struct Ipv4Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  u16 id = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  u16 frag_offset_units = 0;
  u8 ttl = 64;
  u8 protocol = kProtoUdp;
  Bytes payload;

  [[nodiscard]] bool is_fragment() const {
    return more_fragments || frag_offset_units != 0;
  }
  [[nodiscard]] std::size_t frag_offset_bytes() const {
    return std::size_t{frag_offset_units} * 8;
  }
  [[nodiscard]] std::size_t total_length() const {
    return kIpv4HeaderSize + payload.size();
  }
};

// --- fragmentation ----------------------------------------------------------

[[nodiscard]] constexpr std::size_t fragment_payload_capacity(u16 mtu) {
  if (mtu <= kIpv4HeaderSize) return 0;
  return (static_cast<std::size_t>(mtu) - kIpv4HeaderSize) / 8 * 8;
}

inline std::vector<Ipv4Packet> fragment(const Ipv4Packet& full, u16 mtu) {
  if (full.is_fragment()) throw LegacyDecodeError("refusing to re-fragment");
  if (full.total_length() <= mtu) return {full};
  if (full.dont_fragment) {
    throw LegacyDecodeError("DF set but packet exceeds MTU");
  }
  std::size_t chunk = fragment_payload_capacity(mtu);
  if (chunk == 0) throw LegacyDecodeError("MTU too small to fragment");

  std::vector<Ipv4Packet> frags;
  std::size_t offset = 0;
  while (offset < full.payload.size()) {
    std::size_t take = std::min(chunk, full.payload.size() - offset);
    Ipv4Packet f;
    f.src = full.src;
    f.dst = full.dst;
    f.id = full.id;
    f.ttl = full.ttl;
    f.protocol = full.protocol;
    f.frag_offset_units = static_cast<u16>(offset / 8);
    f.payload.assign(full.payload.begin() + static_cast<std::ptrdiff_t>(offset),
                     full.payload.begin() +
                         static_cast<std::ptrdiff_t>(offset + take));
    offset += take;
    f.more_fragments = offset < full.payload.size();
    frags.push_back(std::move(f));
  }
  return frags;
}

// --- reassembly -------------------------------------------------------------

struct ReassemblyPolicy {
  sim::Duration timeout = sim::Duration::seconds(30);
  std::size_t max_datagrams_per_pair = 64;
};

class ReassemblyCache {
 public:
  explicit ReassemblyCache(ReassemblyPolicy policy = {}) : policy_(policy) {}

  std::optional<Ipv4Packet> insert(const Ipv4Packet& frag, sim::Time now) {
    Key key{frag.src, frag.dst, frag.protocol, frag.id};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (count_pair(key) >= policy_.max_datagrams_per_pair) {
        return std::nullopt;
      }
      Entry fresh;
      fresh.first_seen = now;
      it = entries_.emplace(key, std::move(fresh)).first;
      pair_counts_[PairKey{key.src, key.dst, key.proto}]++;
    }
    Entry& entry = it->second;
    if (!entry.parts.contains(frag.frag_offset_units)) {
      entry.parts.emplace(frag.frag_offset_units, frag.payload);
      if (!frag.more_fragments) {
        entry.have_last = true;
        entry.total_payload = frag.frag_offset_bytes() + frag.payload.size();
      }
    }
    auto done = try_complete(key, entry);
    if (done) erase_entry(it);
    return done;
  }

  void expire(sim::Time now) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (now - it->second.first_seen >= policy_.timeout) {
        it = erase_entry(it);
      } else {
        ++it;
      }
    }
  }

 private:
  struct Key {
    Ipv4Addr src, dst;
    u8 proto;
    u16 id;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    sim::Time first_seen;
    std::map<u16, Bytes> parts;
    bool have_last = false;
    std::size_t total_payload = 0;
  };
  struct PairKey {
    Ipv4Addr src, dst;
    u8 proto;
    friend auto operator<=>(const PairKey&, const PairKey&) = default;
  };

  std::optional<Ipv4Packet> try_complete(const Key& key, Entry& entry) {
    if (!entry.have_last) return std::nullopt;
    std::size_t covered = 0;
    for (const auto& [offset_units, part] : entry.parts) {
      std::size_t start = std::size_t{offset_units} * 8;
      if (start > covered) return std::nullopt;
      covered = std::max(covered, start + part.size());
    }
    if (covered < entry.total_payload) return std::nullopt;

    Ipv4Packet full;
    full.src = key.src;
    full.dst = key.dst;
    full.protocol = key.proto;
    full.id = key.id;
    full.payload.assign(entry.total_payload, 0);
    for (const auto& [offset_units, part] : entry.parts) {
      std::size_t start = std::size_t{offset_units} * 8;
      // NOTE: the pre-refactor code underflowed `total - start` when a part
      // began past the datagram end and wrote out of bounds; the frozen
      // copy guards (skips) so the oracle cannot corrupt memory. In-range
      // behaviour is unchanged.
      if (start >= entry.total_payload) break;
      std::size_t n = std::min(part.size(), entry.total_payload - start);
      std::copy_n(part.begin(), n,
                  full.payload.begin() + static_cast<std::ptrdiff_t>(start));
    }
    return full;
  }

  std::size_t count_pair(const Key& key) const {
    auto it = pair_counts_.find(PairKey{key.src, key.dst, key.proto});
    return it == pair_counts_.end() ? 0 : it->second;
  }

  std::map<Key, Entry>::iterator erase_entry(
      std::map<Key, Entry>::iterator it) {
    auto cit = pair_counts_.find(
        PairKey{it->first.src, it->first.dst, it->first.proto});
    if (cit != pair_counts_.end() && --cit->second == 0) {
      pair_counts_.erase(cit);
    }
    return entries_.erase(it);
  }

  ReassemblyPolicy policy_;
  std::map<Key, Entry> entries_;
  std::map<PairKey, std::size_t> pair_counts_;
};

}  // namespace dnstime::legacy
