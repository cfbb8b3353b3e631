// libFuzzer harness: NTP packet + mode-6 config-message parsing.
//
// decode_ntp must return or throw DecodeError; on success the 16-byte
// fixed header (LVM/stratum/poll/precision/root fields/refid) must
// round-trip byte-exactly through encode_ntp. Timestamp words are excluded
// from the byte comparison: the wire<->double conversion is documented as
// lossy below double precision, which is a representation property, not a
// parser bug. decode_config_response is noexcept-by-contract (it returns
// nullopt on malformed input), and a decoded response must round-trip
// byte-exactly through encode_config_response.
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "ntp/packet.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dnstime;
  (void)ntp::is_config_request({data, size});

  try {
    ntp::NtpPacket pkt = ntp::decode_ntp({data, size});
    const PacketBuf wire = ntp::encode_ntp(pkt);
    if (wire.size() != 48) std::abort();
    if (std::memcmp(wire.data(), data, 16) != 0) std::abort();
    ntp::NtpPacket again = ntp::decode_ntp(wire);
    const PacketBuf wire2 = ntp::encode_ntp(again);
    if (wire != wire2) std::abort();  // encoder not idempotent
  } catch (const DecodeError&) {
  }

  if (auto resp = ntp::decode_config_response({data, size})) {
    const PacketBuf wire = ntp::encode_config_response(*resp);
    auto again = ntp::decode_config_response(wire);
    if (!again) std::abort();  // canonical encoding must decode
    if (ntp::encode_config_response(*again) != wire) std::abort();
  }
  return 0;
}
