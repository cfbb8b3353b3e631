// Traced replicas of the campaign trial bodies.
//
// run_traced_replica() drives the same public calls that
// campaign::run_trial() makes for a spec (World, the victim client,
// CachePoisoner, QueryTrigger, RunTimeAttack, ChronosAttack,
// ClientPopulation, World::run_for) and records host-time spans around
// them from outside the program: one span per sim-trace phase, plus the
// receive time of every stack World exposes, measured by timing
// PacketSinks installed with Network::attach. The caller compares
// `result` with run_trial() for the same seed and discards the spans of a
// replica that drifted from the real trial body.
#pragma once

#include <string>
#include <vector>

#include "campaign/scenario_spec.h"

namespace perfbench {

/// Stacks whose receive path is timed; indices into Replica::rx_ms.
enum RxStack { kRxResolver, kRxPoolNs, kRxVictim, kRxAttacker, kRxCount };
inline constexpr const char* kRxStackNames[kRxCount] = {
    "resolver", "pool_ns", "victim", "attacker"};

/// The sim-trace phase names the spans are filed under.
inline constexpr const char* kPhaseNames[] = {
    "honest-sync", "poison-delegation", "attack",       "victim-boot",
    "honest-rounds", "shift",           "fleet-warmup", "migration"};

struct PhaseSpan {
  std::string name;
  double ms = 0.0;           ///< host time spent inside the phase
  dnstime::u64 events = 0;   ///< EventLoop events fired inside the phase
};

struct Replica {
  dnstime::campaign::TrialResult result;
  double total_ms = 0.0;  ///< host time of the whole replica trial
  double world_build_ms = 0.0;
  double population_build_ms = 0.0;  ///< 0 without a ClientPopulation
  double bytes_per_client = 0.0;     ///< 0 without a ClientPopulation
  bool has_population = false;
  std::vector<PhaseSpan> phases;
  double rx_ms[kRxCount] = {};
  /// Summed over the World's pool NtpServers.
  dnstime::u64 ntp_queries = 0;
  dnstime::u64 ntp_kods = 0;
  dnstime::u64 ntp_rate_limited = 0;
  /// RateLimitAbuser packets (run-time recipe only).
  dnstime::u64 packets_spoofed = 0;
};

/// Runs one traced replica of `spec` with the identity in `ctx`. Throws
/// std::invalid_argument for a kCustom spec it has no replica for.
[[nodiscard]] Replica run_traced_replica(
    const dnstime::campaign::ScenarioSpec& spec,
    const dnstime::campaign::TrialContext& ctx);

}  // namespace perfbench
