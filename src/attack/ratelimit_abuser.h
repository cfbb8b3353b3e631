// NTP rate-limit abuse (§IV-B2): spoofed mode-3 floods that make a server
// rate-limit the *victim*, so the victim's genuine polls go unanswered and
// the association looks dead — without any denial of service against the
// server itself.
//
// The flood repeats one datagram per target, so disrupt() encodes it once
// (UDP checksum over the victim→server pseudo-header included) and every
// tick sends a refcounted alias of it; send_raw stamps each alias's own
// spoofed provenance.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/netstack.h"

namespace dnstime::attack {

struct AbuserConfig {
  /// Inter-packet spacing of the spoofed query stream per target server.
  /// Must stay below the server's `discard minimum` gap so every packet
  /// sourced from the victim — including the victim's genuine polls —
  /// is refused unconditionally.
  sim::Duration spacing = sim::Duration::millis(400);
};

class RateLimitAbuser {
 public:
  RateLimitAbuser(net::NetStack& attacker, Ipv4Addr victim,
                  AbuserConfig config = {});
  ~RateLimitAbuser();

  RateLimitAbuser(const RateLimitAbuser&) = delete;
  RateLimitAbuser& operator=(const RateLimitAbuser&) = delete;

  /// Start/extend the spoofed stream against `server`. Idempotent.
  void disrupt(Ipv4Addr server);
  void disrupt_all(const std::vector<Ipv4Addr>& servers);
  /// Stop flooding one server / everything.
  void relent(Ipv4Addr server);
  void stop();

  [[nodiscard]] u64 packets_spoofed() const { return spoofed_; }
  [[nodiscard]] std::size_t active_targets() const { return targets_.size(); }

 private:
  /// One flooded server: its next tick and the forged datagram every tick
  /// re-sends.
  struct Target {
    sim::EventHandle tick;
    PacketBuf datagram;
  };

  void flood_tick(Ipv4Addr server);

  net::NetStack& stack_;
  Ipv4Addr victim_;
  AbuserConfig config_;
  std::unordered_map<Ipv4Addr, Target> targets_;
  u64 spoofed_ = 0;
};

}  // namespace dnstime::attack
