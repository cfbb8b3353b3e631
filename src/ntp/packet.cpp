#include "ntp/packet.h"

#include "ntp/timestamps.h"

namespace dnstime::ntp {

PacketBuf encode_ntp(const NtpPacket& pkt) {
  ByteWriter w;
  w.write_u8(static_cast<u8>((pkt.leap << 6) | ((pkt.version & 0x7) << 3) |
                             (static_cast<u8>(pkt.mode) & 0x7)));
  w.write_u8(pkt.stratum);
  w.write_u8(pkt.poll);
  w.write_u8(static_cast<u8>(pkt.precision));
  w.write_u32(pkt.root_delay);
  w.write_u32(pkt.root_dispersion);
  w.write_u32(pkt.refid);
  w.write_u64(to_wire_timestamp(pkt.ref_time));
  w.write_u64(to_wire_timestamp(pkt.org_time));
  w.write_u64(to_wire_timestamp(pkt.rx_time));
  w.write_u64(to_wire_timestamp(pkt.tx_time));
  return std::move(w).take_buf();
}

NtpPacket decode_ntp(std::span<const u8> data) {
  if (data.size() < 48) throw DecodeError("short NTP packet");
  ByteReader r(data);
  NtpPacket pkt;
  u8 lvm = r.read_u8();
  pkt.leap = lvm >> 6;
  pkt.version = (lvm >> 3) & 0x7;
  pkt.mode = static_cast<Mode>(lvm & 0x7);
  pkt.stratum = r.read_u8();
  pkt.poll = r.read_u8();
  pkt.precision = static_cast<i8>(r.read_u8());
  pkt.root_delay = r.read_u32();
  pkt.root_dispersion = r.read_u32();
  pkt.refid = r.read_u32();
  pkt.ref_time = from_wire_timestamp(r.read_u64());
  pkt.org_time = from_wire_timestamp(r.read_u64());
  pkt.rx_time = from_wire_timestamp(r.read_u64());
  pkt.tx_time = from_wire_timestamp(r.read_u64());
  return pkt;
}

namespace {
constexpr u8 kConfigMagicReq = 0xC1;
constexpr u8 kConfigMagicResp = 0xC2;
}  // namespace

PacketBuf encode_config_request() {
  ByteWriter w;
  w.write_u8(kConfigMagicReq);
  // Mode 6 in the LVM octet position for recognisability on the wire.
  w.write_u8(static_cast<u8>((4 << 3) | 6));
  return std::move(w).take_buf();
}

bool is_config_request(std::span<const u8> data) {
  return data.size() == 2 && data[0] == kConfigMagicReq;
}

PacketBuf encode_config_response(const ConfigResponse& resp) {
  ByteWriter w;
  w.write_u8(kConfigMagicResp);
  w.write_u8(static_cast<u8>((4 << 3) | 6));
  w.write_u16(static_cast<u16>(resp.upstream_addrs.size()));
  for (auto addr : resp.upstream_addrs) w.write_u32(addr.value());
  w.write_u16(static_cast<u16>(resp.configured_hostname.size()));
  w.write_string(resp.configured_hostname);
  return std::move(w).take_buf();
}

std::optional<ConfigResponse> decode_config_response(
    std::span<const u8> data) {
  try {
    ByteReader r(data);
    if (r.read_u8() != kConfigMagicResp) return std::nullopt;
    (void)r.read_u8();
    ConfigResponse resp;
    u16 n = r.read_u16();
    for (u16 i = 0; i < n; ++i) resp.upstream_addrs.emplace_back(r.read_u32());
    u16 len = r.read_u16();
    Bytes host = r.read_bytes(len);
    resp.configured_hostname.assign(host.begin(), host.end());
    return resp;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace dnstime::ntp
