#include "replica.h"

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/boot_time_attack.h"
#include "attack/chronos_attack.h"
#include "attack/query_trigger.h"
#include "attack/run_time_attack.h"
#include "chronos/chronos_client.h"
#include "ntp/clients/chrony.h"
#include "ntp/clients/ntpd.h"
#include "ntp/clients/openntpd.h"
#include "scenario/population.h"
#include "scenario/world.h"

namespace perfbench {
namespace {

using namespace dnstime;
using campaign::ClientKind;
using campaign::ScenarioSpec;
using campaign::TrialContext;
using campaign::TrialResult;
using scenario::World;
using sim::Duration;
using Clock = std::chrono::steady_clock;

// The victim address campaign/trial.cpp uses: a replica must build the same
// world as the trial it stands in for.
const Ipv4Addr kVictim{10, 77, 0, 1};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Forwards every packet to the stack it replaced and adds the host time
/// the stack's receive path took to `ms`.
class TimedSink final : public sim::PacketSink {
 public:
  TimedSink(sim::PacketSink& inner, double& ms) : inner_(inner), ms_(ms) {}
  void deliver(const net::Ipv4Packet& pkt) override {
    const auto t0 = Clock::now();
    inner_.deliver(pkt);
    ms_ += ms_since(t0);
  }

 private:
  sim::PacketSink& inner_;
  double& ms_;
};

/// Owns the timing sinks of one replica and files phase spans into it.
/// Declared before the World it observes, so the sinks outlive every
/// delivery the World's Network can make.
class Tracer {
 public:
  explicit Tracer(Replica& out) : out_(out) {}

  void time_rx(World& world, net::NetStack& stack, RxStack which) {
    sinks_.push_back(std::make_unique<TimedSink>(stack, out_.rx_ms[which]));
    world.net().attach(stack.addr(), sinks_.back().get());
  }

  /// The infrastructure stacks every World has.
  void time_world(World& world) {
    time_rx(world, world.resolver().stack(), kRxResolver);
    time_rx(world, world.pool_ns_stack(), kRxPoolNs);
    time_rx(world, world.attacker(), kRxAttacker);
  }

  void phase(const char* name, World& world, const std::function<void()>& body) {
    const u64 fired0 = world.loop().stats().fired;
    const auto t0 = Clock::now();
    body();
    out_.phases.push_back(
        PhaseSpan{name, ms_since(t0), world.loop().stats().fired - fired0});
  }

 private:
  Replica& out_;
  std::vector<std::unique_ptr<TimedSink>> sinks_;
};

std::unique_ptr<World> build_world(const ScenarioSpec& spec, u64 seed,
                                   Replica& rep) {
  scenario::WorldConfig wc = spec.world;
  wc.seed = seed;
  const auto t0 = Clock::now();
  auto world = std::make_unique<World>(wc);
  rep.world_build_ms = ms_since(t0);
  return world;
}

void count_ntp_servers(World& world, Replica& rep) {
  for (std::size_t i = 0; i < world.config().pool_size; ++i) {
    const ntp::NtpServer& s = world.pool_server(i);
    rep.ntp_queries += s.queries_received();
    rep.ntp_kods += s.kods_sent();
    rep.ntp_rate_limited += s.dropped_rate_limited();
  }
}

Duration run_until(World& world, Duration budget, Duration slice,
                   const std::function<bool()>& done) {
  Duration spent;
  while (spent < budget && !done()) {
    world.run_for(slice);
    spent = spent + slice;
  }
  return spent;
}

// --- mirrors of campaign/trial.cpp ------------------------------------------

void run_time(const ScenarioSpec& spec, Replica& rep) {
  TrialResult& result = rep.result;
  Tracer tr(rep);
  std::unique_ptr<World> owned = build_world(spec, result.seed, rep);
  World& world = *owned;

  auto& host = world.add_host(kVictim);
  tr.time_world(world);
  tr.time_rx(world, *host.stack, kRxVictim);
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();

  std::unique_ptr<ntp::NtpClientBase> client;
  std::unique_ptr<ntp::NtpServer> victim_server;
  switch (spec.client) {
    case ClientKind::kNtpdKnownList:
    case ClientKind::kNtpdRefid: {
      auto ntpd =
          std::make_unique<ntp::NtpdClient>(*host.stack, host.clock, cfg);
      victim_server = std::make_unique<ntp::NtpServer>(*host.stack, host.clock,
                                                       ntp::ServerConfig{});
      ntpd->attach_server(victim_server.get());
      client = std::move(ntpd);
      break;
    }
    case ClientKind::kChrony:
      cfg.poll_interval = Duration::seconds(192);
      client =
          std::make_unique<ntp::ChronyClient>(*host.stack, host.clock, cfg);
      break;
    case ClientKind::kOpenntpd:
      client =
          std::make_unique<ntp::OpenntpdClient>(*host.stack, host.clock, cfg);
      break;
  }
  tr.phase("honest-sync", world, [&] {
    client->start();
    world.run_for(Duration::minutes(12));
  });
  if (host.clock.offset() < -1.0) {
    result.error = "victim failed to synchronise honestly before the attack";
    result.clock_shift_s = host.clock.offset();
    count_ntp_servers(world, rep);
    return;
  }

  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  tr.phase("poison-delegation", world, [&] {
    poisoner.start();
    world.run_for(Duration::seconds(20));
    attack::QueryTrigger::via_open_resolver(
        world.attacker(), world.resolver_addr(),
        dns::DnsName::from_string("pool.ntp.org"));
    world.run_for(Duration::seconds(10));
  });

  sim::Time attack_start = world.loop().now();
  attack::RunTimeConfig rc;
  rc.victim = kVictim;
  rc.discovery = spec.client == ClientKind::kNtpdRefid
                     ? attack::RunTimeConfig::Discovery::kRefidLeak
                     : attack::RunTimeConfig::Discovery::kKnownList;
  rc.known_servers = world.pool_server_addrs();
  rc.deadline = spec.stop.deadline;
  attack::RunTimeAttack attack(world.attacker(), rc);
  std::optional<attack::AttackOutcome> outcome;
  tr.phase("attack", world, [&] {
    attack.run(
        [&] { return host.clock.offset() <= spec.stop.success_shift; },
        [&](const attack::AttackOutcome& o) { outcome = o; });
    if (spec.client == ClientKind::kOpenntpd) {
      auto* ontpd = static_cast<ntp::OpenntpdClient*>(client.get());
      world.loop().schedule_after(Duration::minutes(60),
                                  [ontpd] { ontpd->restart(); });
    }
    run_until(world, spec.stop.deadline + spec.stop.settle,
              Duration::minutes(5), [&] { return outcome.has_value(); });
  });

  result.clock_shift_s = host.clock.offset();
  result.fragments_planted = poisoner.fragments_planted();
  if (outcome && outcome->success) {
    result.success = true;
    result.duration_s = (outcome->at - attack_start).to_seconds();
    result.replant_rounds = outcome->replant_rounds;
  } else {
    result.duration_s = spec.stop.deadline.to_seconds();
  }
  rep.packets_spoofed = attack.abuser().packets_spoofed();
  count_ntp_servers(world, rep);
}

void boot_time(const ScenarioSpec& spec, Replica& rep) {
  TrialResult& result = rep.result;
  Tracer tr(rep);
  std::unique_ptr<World> owned = build_world(spec, result.seed, rep);
  World& world = *owned;
  tr.time_world(world);

  attack::BootTimeConfig bc;
  bc.poison = world.default_poisoner_config();
  bc.trigger = attack::BootTimeConfig::Trigger::kOpenResolver;
  bc.deadline = spec.stop.deadline;
  attack::BootTimeAttack attack(world.attacker(), bc);
  attack.set_success_check([&] { return world.pool_a_poisoned(); });

  sim::Time attack_start = world.loop().now();
  std::optional<attack::AttackOutcome> outcome;
  tr.phase("attack", world, [&] {
    attack.run([&](const attack::AttackOutcome& o) { outcome = o; });
    run_until(world, spec.stop.deadline + Duration::minutes(1),
              Duration::seconds(30), [&] { return outcome.has_value(); });
  });

  if (outcome) {
    result.fragments_planted = outcome->fragments_planted;
    result.replant_rounds = outcome->replant_rounds;
  }
  if (!outcome || !outcome->success) {
    result.duration_s = spec.stop.deadline.to_seconds();
    count_ntp_servers(world, rep);
    return;
  }
  result.duration_s = (outcome->at - attack_start).to_seconds();

  auto& host = world.add_host(kVictim);
  tr.time_rx(world, *host.stack, kRxVictim);
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  ntp::NtpdClient client(*host.stack, host.clock, cfg);
  tr.phase("victim-boot", world, [&] {
    client.start();
    world.run_for(spec.stop.settle);
  });
  result.clock_shift_s = host.clock.offset();
  result.success = result.clock_shift_s <= spec.stop.success_shift;
  count_ntp_servers(world, rep);
}

void chronos(const ScenarioSpec& spec, Replica& rep) {
  TrialResult& result = rep.result;
  Tracer tr(rep);
  std::unique_ptr<World> owned = build_world(spec, result.seed, rep);
  World& world = *owned;

  auto& victim = world.add_host(kVictim);
  tr.time_world(world);
  tr.time_rx(world, *victim.stack, kRxVictim);
  ntp::ClientBaseConfig cfg;
  cfg.resolver = world.resolver_addr();
  chronos::ChronosClient client(*victim.stack, victim.clock, cfg);
  client.start();

  if (spec.chronos_honest_rounds > 0) {
    tr.phase("honest-rounds", world, [&] {
      world.run_for(Duration::hours(spec.chronos_honest_rounds - 1) +
                    Duration::minutes(30));
    });
  }
  attack::ChronosAttack attack(
      world.attacker(),
      attack::ChronosAttackConfig{
          .resolver_addr = world.resolver_addr(),
          .malicious_ntp = world.attacker_ntp_addrs()});
  attack.inject_whitebox(world.resolver());

  Duration spent;
  tr.phase("shift", world, [&] {
    spent = run_until(
        world, spec.stop.deadline + spec.stop.settle, Duration::hours(1),
        [&] { return victim.clock.offset() <= spec.stop.success_shift; });
  });

  result.clock_shift_s = victim.clock.offset();
  result.success = result.clock_shift_s <= spec.stop.success_shift;
  result.duration_s = result.success ? spent.to_seconds()
                                     : spec.stop.deadline.to_seconds();
  std::size_t malicious = 0;
  const auto& pool = client.pool_builder().pool();
  for (Ipv4Addr addr : pool) {
    if (world.is_attacker_ntp(addr)) malicious++;
  }
  result.metric = pool.empty() ? 0.0
                               : static_cast<double>(malicious) /
                                     static_cast<double>(pool.size());
  count_ntp_servers(world, rep);
}

// --- mirrors of campaign/population_trial.cpp -------------------------------

std::unique_ptr<scenario::ClientPopulation> build_population(
    World& world, scenario::PopulationConfig pc, Replica& rep) {
  const auto t0 = Clock::now();
  auto pop = std::make_unique<scenario::ClientPopulation>(world, pc);
  rep.population_build_ms = ms_since(t0);
  rep.has_population = true;
  return pop;
}

void shared_resolver(const ScenarioSpec& spec, Replica& rep) {
  TrialResult& result = rep.result;
  Tracer tr(rep);
  std::unique_ptr<World> owned = build_world(spec, result.seed, rep);
  World& world = *owned;
  tr.time_world(world);

  scenario::PopulationConfig pc;
  pc.clients = spec.population_clients;
  pc.seed = result.seed;
  std::unique_ptr<scenario::ClientPopulation> owned_pop =
      build_population(world, pc, rep);
  scenario::ClientPopulation& pop = *owned_pop;

  tr.phase("fleet-warmup", world, [&] {
    world.run_for(Duration::seconds(static_cast<i64>(pc.poll_s) + 30));
  });

  const sim::Time attack_start = world.loop().now();
  std::optional<attack::CachePoisoner> poisoner;
  tr.phase("migration", world, [&] {
    poisoner.emplace(world.attacker(), world.default_poisoner_config());
    poisoner->start();
    world.run_for(Duration::seconds(30));

    const double threshold = spec.stop.success_shift;
    const Duration budget =
        Duration::seconds(2 * static_cast<i64>(world.config().pool_a_ttl) +
                          3 * static_cast<i64>(pc.poll_s)) +
        spec.stop.settle;
    Duration spent;
    const Duration slice = Duration::seconds(10);
    while (spent < budget && pop.fraction_shifted(threshold) < 0.5) {
      world.run_for(slice);
      spent = spent + slice;
    }
  });

  result.metric = pop.fraction_shifted(spec.stop.success_shift);
  result.clock_shift_s = pop.mean_shift_s();
  result.success = result.metric >= 0.5;
  result.duration_s = (world.loop().now() - attack_start).to_seconds();
  result.fragments_planted = poisoner->fragments_planted();
  result.replant_rounds = poisoner->replant_rounds();
  rep.bytes_per_client = pop.resident_bytes_per_client();
  count_ntp_servers(world, rep);
}

void ratelimit_herd(const ScenarioSpec& spec, Replica& rep) {
  TrialResult& result = rep.result;
  Tracer tr(rep);
  std::unique_ptr<World> owned = build_world(spec, result.seed, rep);
  World& world = *owned;
  tr.time_world(world);

  scenario::PopulationConfig pc;
  pc.clients = spec.population_clients;
  pc.seed = result.seed;
  pc.gateways = 4;
  pc.batch_cap = 64;
  std::unique_ptr<scenario::ClientPopulation> owned_pop =
      build_population(world, pc, rep);
  scenario::ClientPopulation& pop = *owned_pop;

  // The herd trial has no attack: the whole run is the fleet polling.
  const sim::Time start = world.loop().now();
  tr.phase("fleet-warmup", world, [&] {
    world.run_for(Duration::seconds(static_cast<i64>(pc.poll_s) * 5));
  });

  const scenario::ClientPopulation::Metrics& m = pop.metrics();
  const u64 starved = m.kod_polls + m.timeout_polls;
  result.metric = m.polls == 0 ? 0.0
                               : static_cast<double>(starved) /
                                     static_cast<double>(m.polls);
  result.clock_shift_s = pop.mean_shift_s();
  result.success = m.kod_polls > 0;
  result.duration_s = (world.loop().now() - start).to_seconds();
  rep.bytes_per_client = pop.resident_bytes_per_client();
  count_ntp_servers(world, rep);
}

}  // namespace

Replica run_traced_replica(const ScenarioSpec& spec, const TrialContext& ctx) {
  Replica rep;
  rep.result.trial = ctx.trial;
  rep.result.seed = ctx.seed;
  switch (spec.attack) {
    case campaign::AttackKind::kRunTime:
      run_time(spec, rep);
      break;
    case campaign::AttackKind::kBootTime:
      boot_time(spec, rep);
      break;
    case campaign::AttackKind::kChronos:
      chronos(spec, rep);
      break;
    case campaign::AttackKind::kCustom:
      if (spec.name.starts_with("population/shared-resolver-")) {
        shared_resolver(spec, rep);
      } else if (spec.name.starts_with("population/ratelimit-herd-")) {
        ratelimit_herd(spec, rep);
      } else {
        throw std::invalid_argument("no traced replica for '" + spec.name +
                                    "'");
      }
      break;
  }
  return rep;
}

}  // namespace perfbench
