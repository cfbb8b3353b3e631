// ClientPopulation: fleet-scale worlds must behave like the single-victim
// worlds, only wider. The pins here are the population contract:
// determinism across runs, a genuine shared-resolver poisoning that
// migrates with DNS TTL rollover, the rate-limit herd effect, and the
// <= 64 B/client memory budget.
#include "scenario/population.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "attack/cache_poisoner.h"
#include "campaign/trial.h"

namespace dnstime::scenario {
namespace {

using sim::Duration;

PopulationConfig small_config(u32 clients, u64 seed) {
  PopulationConfig pc;
  pc.clients = clients;
  pc.seed = seed;
  return pc;
}

TEST(ClientPopulation, FleetSyncsToTrueTimeHonestly) {
  WorldConfig wc;
  wc.seed = 5;
  World world(wc);
  ClientPopulation pop(world, small_config(2'000, 5));
  // One poll interval plus DNS/exchange slack: every client has resolved
  // and disciplined at least once.
  world.run_for(Duration::seconds(90));
  EXPECT_EQ(pop.metrics().dns_queries, 1u)
      << "the whole fleet shares one in-flight resolver query";
  EXPECT_GT(pop.metrics().polls, 0u);
  EXPECT_GT(pop.metrics().exchanges, 0u);
  EXPECT_LT(pop.metrics().exchanges, pop.metrics().polls)
      << "polls must batch into fewer wire exchanges";
  // Honest servers serve true time; the fleet stays unshifted.
  EXPECT_EQ(pop.fraction_shifted(-1.0), 0.0);
  EXPECT_NEAR(pop.mean_shift_s(), 0.0, 0.05);
  EXPECT_EQ(pop.fraction_on_attacker(), 0.0);
}

TEST(ClientPopulation, EqualSeedsGiveEqualFleets) {
  auto run = [](u64 seed) {
    WorldConfig wc;
    wc.seed = seed;
    World world(wc);
    ClientPopulation pop(world, small_config(1'500, seed));
    world.run_for(Duration::seconds(200));
    ClientPopulation::Metrics m = pop.metrics();
    return std::tuple<u64, u64, u64, double>(m.polls, m.exchanges,
                                             m.dns_queries,
                                             pop.mean_shift_s());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), 0u);
}

TEST(ClientPopulation, SharedResolverPoisoningMigratesAcrossFleet) {
  WorldConfig wc;
  wc.seed = 9;
  World world(wc);
  ClientPopulation pop(world, small_config(2'000, 9));
  world.run_for(Duration::seconds(90));  // fleet synced, honest

  attack::CachePoisoner poisoner(world.attacker(),
                                 world.default_poisoner_config());
  poisoner.start();
  world.run_for(Duration::seconds(30));  // armed: fragments planted

  // The fleet warmed the resolver's cache, so nothing upstream moves (and
  // nothing can be poisoned) until the cached pool A expires. The fleet
  // still polls honest servers meanwhile.
  const double shifted_before = pop.fraction_shifted(-400.0);
  EXPECT_EQ(shifted_before, 0.0);

  // Two TTL rollovers do the whole job, with no attacker-side trigger at
  // all: the fleet's own re-resolution at the first rollover is the query
  // that reassembles with the planted fragment (delegation hijack); the
  // second rollover's re-resolution follows the hijacked delegation to
  // the attacker's nameserver and hands attacker NTP addresses to the
  // fleet. One more poll interval applies the -500 s time.
  world.run_for(Duration::seconds(
      2 * static_cast<i64>(world.config().pool_a_ttl) + 3 * 64 + 30));
  EXPECT_TRUE(world.delegation_hijacked())
      << "the fleet's own TTL-rollover query must trigger the hijack";
  const double shifted_after = pop.fraction_shifted(-400.0);
  EXPECT_GT(shifted_after, 0.9)
      << "before=" << shifted_before << " after=" << shifted_after;
  EXPECT_GT(shifted_after, shifted_before);
  EXPECT_GT(pop.fraction_on_attacker(), 0.9);
  EXPECT_LT(pop.mean_shift_s(), -400.0);
}

TEST(ClientPopulation, HerdTripsRateLimitersOnASmallPool) {
  WorldConfig wc;
  wc.seed = 13;
  wc.pool_size = 2;
  wc.rate_limit_fraction = 1.0;
  wc.kod_fraction = 1.0;
  World world(wc);
  PopulationConfig pc = small_config(4'000, 13);
  pc.gateways = 2;   // concentrate sources so per-source buckets fill
  pc.batch_cap = 32;
  ClientPopulation pop(world, pc);
  world.run_for(Duration::seconds(64 * 5));
  const ClientPopulation::Metrics& m = pop.metrics();
  EXPECT_GT(m.kod_polls + m.timeout_polls, 0u)
      << "a herd on a tiny fully-rate-limiting pool must hit the limiters";
  EXPECT_GT(m.polls, 0u);
}

TEST(ClientPopulation, ResidentMemoryStaysUnderBudget) {
  WorldConfig wc;
  wc.seed = 21;
  World world(wc);
  ClientPopulation pop(world, small_config(50'000, 21));
  world.run_for(Duration::seconds(150));
  EXPECT_LE(pop.resident_bytes_per_client(), 64.0)
      << "flat SoA state plus the deadline ring must stay within the "
         "64 B/client population budget";
  EXPECT_GT(pop.metrics().polls, 0u);
}

// --- exact-value pins ------------------------------------------------------
// The fleet's whole behaviour hangs off the order in which poll deadlines
// pop: (time, insertion) order decides batch membership, gateway rotation
// and therefore every rate-limiter token and discipline outcome. These
// pins hold the exact trial results and fleet counters, so any change to
// the deadline queue that reorders a single poll shows up here.

/// Round-trip-exact rendering of every deterministic TrialResult field.
std::string pin(const campaign::TrialResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "success=%d duration_s=%.17g clock_shift_s=%.17g "
                "metric=%.17g fragments=%llu replants=%llu",
                r.success ? 1 : 0, r.duration_s, r.clock_shift_s, r.metric,
                static_cast<unsigned long long>(r.fragments_planted),
                static_cast<unsigned long long>(r.replant_rounds));
  return buf;
}

std::string run_pinned(const campaign::ScenarioSpec& spec, u64 seed) {
  campaign::TrialContext ctx;
  ctx.seed = seed;
  const campaign::TrialResult r = campaign::run_trial(spec, ctx);
  EXPECT_TRUE(r.error.empty()) << r.error;
  return pin(r);
}

TEST(ClientPopulationPin, SharedResolverTrialResults) {
  const campaign::ScenarioSpec spec =
      campaign::population_shared_resolver_scenario(2'000);
  EXPECT_EQ(run_pinned(spec, 1),
            "success=1 duration_s=270 clock_shift_s=-288.74999986231325 "
            "metric=0.57750000000000001 fragments=144 replants=9");
  EXPECT_EQ(run_pinned(spec, 2),
            "success=1 duration_s=260 clock_shift_s=-329.49999984288218 "
            "metric=0.65900000000000003 fragments=144 replants=9");
  EXPECT_EQ(run_pinned(spec, 3),
            "success=1 duration_s=270 clock_shift_s=-296.249999858737 "
            "metric=0.59250000000000003 fragments=144 replants=9");
}

TEST(ClientPopulationPin, RatelimitHerdTrialResults) {
  const campaign::ScenarioSpec spec =
      campaign::population_ratelimit_herd_scenario(2'000);
  EXPECT_EQ(run_pinned(spec, 1),
            "success=1 duration_s=320 clock_shift_s=0 "
            "metric=0.57500888730892286 fragments=0 replants=0");
  EXPECT_EQ(run_pinned(spec, 2),
            "success=1 duration_s=320 clock_shift_s=0 "
            "metric=0.58302122347066165 fragments=0 replants=0");
  EXPECT_EQ(run_pinned(spec, 3),
            "success=1 duration_s=320 clock_shift_s=0 "
            "metric=0.57498223169864959 fragments=0 replants=0");
}

TEST(ClientPopulationPin, SaturatedBackoffFleetState) {
  // Every server rate-limits with KoD, so backoff saturates at
  // max_poll_s = 4: no deadline sits more than 4 s out, the deadline queue
  // wraps its short horizon many times over 600 s, and each TTL rollover
  // re-arms the DNS waiters at the off-grid instant the answer lands.
  WorldConfig wc;
  wc.seed = 17;
  wc.pool_size = 2;
  wc.rate_limit_fraction = 1.0;
  wc.kod_fraction = 1.0;
  World world(wc);
  PopulationConfig pc = small_config(3'000, 17);
  pc.gateways = 2;
  pc.batch_cap = 32;
  pc.poll_s = 2;
  pc.max_poll_s = 4;
  ClientPopulation pop(world, pc);
  world.run_for(Duration::seconds(600));

  const ClientPopulation::Metrics& m = pop.metrics();
  EXPECT_GE(m.dns_queries, 3u) << "TTL rollovers must re-resolve the fleet";
  EXPECT_GT(m.dns_waits, 0u);
  EXPECT_GT(m.kod_polls, 0u);
  using Counters = std::tuple<u64, u64, u64, u64, u64, u64, u64, u64, u64>;
  EXPECT_EQ((Counters{m.polls, m.exchanges, m.kod_polls, m.timeout_polls,
                      m.dns_queries, m.dns_waits, m.steps, m.slews,
                      m.refused}),
            (Counters{300'512, 9'616, 256, 299'744, 10, 12'246, 0, 0, 0}));
  EXPECT_EQ(pop.mean_shift_s(), 0.0);
}

}  // namespace
}  // namespace dnstime::scenario
