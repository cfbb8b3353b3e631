// DNS message wire codec (RFC 1035) with record-span tracking.
//
// The decoder can report the byte offset and length of every record's TTL
// and rdata fields within the message. The attack's fragment crafter uses
// those spans to find which fields of a predicted response lie wholly
// inside the second fragment and can therefore be rewritten (§III-2/3).
#pragma once

#include <optional>
#include <vector>

#include "dns/records.h"

namespace dnstime::dns {

enum class Section : u8 { kAnswer, kAuthority, kAdditional };

enum class Rcode : u8 {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kRefused = 5,
};

struct DnsQuestion {
  DnsName name;
  RrType type = RrType::kA;
  friend bool operator==(const DnsQuestion&, const DnsQuestion&) = default;
};

struct DnsMessage {
  u16 id = 0;
  bool qr = false;  ///< response flag
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = true;   ///< recursion desired
  bool ra = false;  ///< recursion available
  bool ad = false;  ///< authenticated data (set by validating resolvers)
  Rcode rcode = Rcode::kNoError;
  std::vector<DnsQuestion> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  friend bool operator==(const DnsMessage&, const DnsMessage&) = default;

  [[nodiscard]] const std::vector<ResourceRecord>& section(Section s) const {
    switch (s) {
      case Section::kAnswer: return answers;
      case Section::kAuthority: return authority;
      default: return additional;
    }
  }
};

/// Byte location of one record's mutable fields inside the encoded message.
struct RecordSpan {
  Section section;
  std::size_t index;        ///< index within its section
  RrType type;
  std::size_t ttl_offset;   ///< offset of the 4-byte TTL field
  std::size_t rdata_offset;
  std::size_t rdata_length;
};

/// Encode into a pooled buffer with packet headroom — the payload the
/// resolver/nameserver hot paths hand straight to NetStack::send_udp.
[[nodiscard]] PacketBuf encode_dns(const DnsMessage& msg);

/// Decode a message. If `spans` is non-null it receives one entry per
/// record in answer/authority/additional order.
[[nodiscard]] DnsMessage decode_dns(std::span<const u8> data,
                                    std::vector<RecordSpan>* spans = nullptr);

}  // namespace dnstime::dns
