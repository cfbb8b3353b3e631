// perfbench: the repository's end-to-end benchmark binary.
//
// Runs one workload through the public campaign API
// (ScenarioRegistry::builtin(), CampaignRunner::run, store::read_report)
// for a timed window and prints one JSON document on stdout: the
// end-to-end metrics, the per-layer counters, the report digest and the
// build stamp. perfbench/run.py builds this binary, adds the host stamp,
// checks the digest and prints the metrics in the benchmark's format.
//
//   perfbench --workload table2|population|catalogue-mt --seed N
//             --seconds S --trace 0|1 --scale full|tiny --work-dir DIR
//
// A window is a sequence of rounds. Round r is one campaign over the
// workload's scenarios with campaign seed round_seed(--seed, r); rounds
// repeat until --seconds have passed and at least 100 trials ran. Distinct
// rounds make a run average over many distinct trials, so its figures
// depend little on which seed the run was given. The report digest is
// round 0's, whose campaign seed is --seed itself. Set-up warms up with a
// campaign of fixed seed, whose report digest is printed too and does not
// depend on --seed. After the window, trial 0 of every scenario is
// replayed with run_trial on one thread and must equal round 0's result.
// With --trace 1 the window is followed by traced replicas of those trials
// (replica.h), which give the per-layer spans and must equal run_trial.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/runner.h"
#include "campaign/store/journal_reader.h"
#include "campaign/trial.h"
#include "common/buffer.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "replica.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dnstime;
using campaign::CampaignConfig;
using campaign::CampaignReport;
using campaign::CampaignRunner;
using campaign::ScenarioRegistry;
using campaign::ScenarioSpec;
using campaign::TrialContext;
using campaign::TrialResult;
using perfbench::Replica;
using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. at process start.
const Clock::time_point g_process_start = Clock::now();

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Trials a full-size window holds at least, so trial_ms_p90 has at least
/// ten samples beyond it.
constexpr u64 kMinTrials = 100;
/// A window never runs longer than this, whatever --seconds says.
constexpr double kMaxWindowS = 120.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
};

/// The generated inputs of one workload: the scenario specs and how a
/// round runs them.
struct Workload {
  std::vector<ScenarioSpec> specs;
  u32 trials = 1;  ///< per scenario per round
  u32 threads = 1;
  bool journaled = false;
};

Workload make_workload(const Options& opt, const ScenarioRegistry& reg) {
  Workload w;
  if (opt.workload == "table2") {
    w.specs = reg.select("table2/");
    w.trials = opt.tiny ? 1 : 25;
  } else if (opt.workload == "population") {
    if (opt.tiny) {
      w.specs = {campaign::population_shared_resolver_scenario(2000),
                 campaign::population_ratelimit_herd_scenario(2000)};
    } else {
      w.specs = reg.select("population/");
    }
    w.trials = opt.tiny ? 1 : 25;
  } else if (opt.workload == "catalogue-mt") {
    for (const ScenarioSpec& s : reg.all()) {
      if (!s.name.starts_with("table2/") && !s.name.starts_with("population/")) {
        w.specs.push_back(s);
      }
    }
    w.trials = opt.tiny ? 1 : 6;
    const u32 hw = std::max(1u, std::thread::hardware_concurrency());
    w.threads = std::min(hw, 4u);
    w.journaled = true;
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (w.specs.empty()) {
    throw std::runtime_error("workload '" + opt.workload + "' has no scenarios");
  }
  return w;
}

/// "fnv1a64:<16 hex digits>", the FNV-1a-64 hash of `s`.
std::string digest(const std::string& s) {
  u64 h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016" PRIx64, h);
  return buf;
}

/// Quantile q of `v`, linearly interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Campaign seed of round `r`: --seed itself for round 0, a splitmix64
/// hash of (seed, r) after it, so runs with nearby seeds share no rounds.
u64 round_seed(u64 seed, u32 r) {
  if (r == 0) return seed;
  u64 z = seed + 0x9e3779b97f4a7c15ull * r;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// What one window observed, before it is turned into metrics.
struct Window {
  double seconds = 0.0;
  u32 rounds = 0;
  u64 trials = 0;
  u64 errors = 0;
  u64 fragments_planted = 0;
  u64 replant_rounds = 0;
  std::vector<double> trial_ms;  ///< gaps between progress callbacks
  /// The same gaps, by the scenario of the trial that ended each one.
  std::map<std::string, std::vector<double>> scenario_trial_ms;
  double tail_ms_sum = 0.0;
  double read_report_ms_sum = 0.0;
  CampaignReport first;  ///< round 0's report, per-trial rows included
  std::vector<std::string> problems;  ///< failed output checks
};

/// Runs one round: a campaign over the workload, then (journaled) its
/// read-back. Returns the report with its per-trial rows.
CampaignReport run_round(u64 seed, const Workload& w,
                         const std::string& journal_dir, Window& win) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.trials = w.trials;
  cfg.threads = w.threads;
  cfg.journal_dir = journal_dir;
  CampaignRunner runner(cfg);

  // Per-trial wall time is the gap between consecutive progress callbacks
  // on one worker thread; the first trial of a thread counts from the
  // moment run() is called. Callbacks are serialised by the runner.
  std::unordered_map<std::thread::id, Clock::time_point> last;
  Clock::time_point round_start;
  runner.set_progress([&](const ScenarioSpec& spec, const TrialResult& r) {
    const Clock::time_point now = Clock::now();
    auto it = last.try_emplace(std::this_thread::get_id(), round_start).first;
    win.trial_ms.push_back(ms_between(it->second, now));
    win.scenario_trial_ms[spec.name].push_back(win.trial_ms.back());
    it->second = now;
    win.trials++;
    if (!r.error.empty()) win.errors++;
    win.fragments_planted += r.fragments_planted;
    win.replant_rounds += r.replant_rounds;
  });

  round_start = Clock::now();
  const CampaignReport report = runner.run(w.specs);
  const Clock::time_point returned = Clock::now();
  Clock::time_point first_idle = returned;
  for (const auto& [id, t] : last) first_idle = std::min(first_idle, t);
  win.tail_ms_sum += ms_between(first_idle, returned);

  if (!w.journaled) return report;
  const Clock::time_point r0 = Clock::now();
  CampaignReport read_back = campaign::store::read_report(journal_dir);
  win.read_report_ms_sum += ms_between(r0, Clock::now());
  if (read_back.to_json(false) != report.to_json(false)) {
    win.problems.push_back(
        "journal read-back aggregates differ from the run() report");
  }
  return read_back;
}

/// One set-up: build the registry, generate the workload, prepare the
/// journal directory and warm up with one trial per scenario. The warm-up
/// uses the default campaign seed, so set-up work and the warm-up report
/// (returned in `warmup_report`) do not depend on --seed.
double set_up(const Options& opt, Clock::time_point t0, int index,
              Workload& out, std::string& warmup_report) {
  const ScenarioRegistry reg = ScenarioRegistry::builtin();
  out = make_workload(opt, reg);
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  CampaignConfig cfg;
  cfg.trials = 1;
  cfg.threads = out.threads;
  if (out.journaled) {
    cfg.journal_dir = opt.work_dir + "/warmup-" + std::to_string(index);
  }
  warmup_report = CampaignRunner(cfg).run(out.specs).to_json();
  return seconds_since(t0);
}

Window run_window(const Options& opt, const Workload& w) {
  Window win;
  const u64 min_trials = opt.tiny ? 1 : kMinTrials;
  const Clock::time_point t0 = Clock::now();
  do {
    const std::string dir =
        w.journaled ? opt.work_dir + "/round-" + std::to_string(win.rounds)
                    : std::string();
    CampaignReport report =
        run_round(round_seed(opt.seed, win.rounds), w, dir, win);
    if (win.rounds == 0) win.first = std::move(report);
    win.rounds++;
    win.seconds = seconds_since(t0);
  } while ((win.seconds < opt.seconds || win.trials < min_trials) &&
           win.seconds < kMaxWindowS);
  return win;
}

bool same_result(const TrialResult& a, const TrialResult& b) {
  return a.trial == b.trial && a.seed == b.seed && a.success == b.success &&
         a.duration_s == b.duration_s && a.clock_shift_s == b.clock_shift_s &&
         a.metric == b.metric && a.fragments_planted == b.fragments_planted &&
         a.replant_rounds == b.replant_rounds && a.error == b.error;
}

TrialContext trial0(u64 seed, const ScenarioSpec& spec) {
  TrialContext ctx;
  ctx.campaign_seed = seed;
  ctx.trial = 0;
  ctx.seed = CampaignRunner::trial_seed(seed, spec, 0);
  return ctx;
}

/// Replays trial 0 of every scenario with run_trial on this thread; each
/// must equal the result the runner produced in round 0.
void check_replay(const Options& opt, const Workload& w, Window& win) {
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const auto& results = win.first.scenarios.at(i).results;
    if (results.empty() ||
        !same_result(campaign::run_trial(w.specs[i], trial0(opt.seed, w.specs[i])),
                     results.front())) {
      win.problems.push_back("replay of '" + w.specs[i].name +
                             "' trial 0 differs from the campaign result");
    }
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  u64 samples = 0;  ///< 0 where a sample count does not apply
};

/// Sums the spans of the traced replicas.
struct TraceTotals {
  u64 replicas = 0;
  u64 population_replicas = 0;
  std::map<std::string, double> phase_ms;
  std::map<std::string, double> phase_events;
  double rx_ms[perfbench::kRxCount] = {};
  double world_build_ms = 0.0;
  double population_build_ms = 0.0;
  double bytes_per_client = 0.0;
  double ntp_queries = 0.0;
  double ntp_kods = 0.0;
  double ntp_rate_limited = 0.0;
  double packets_spoofed = 0.0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
};

/// Traced replicas of trial 0 of every scenario, each paired with an
/// untraced run_trial of the same seed. Passes repeat (at most five) while
/// the budget lasts, for more overhead samples. A replica that throws or
/// whose result differs from run_trial's is a failed output check: its
/// spans would time some other trial.
TraceTotals run_traced(const Options& opt, const Workload& w,
                       std::vector<std::string>& problems) {
  TraceTotals tt;
  const double budget_s = std::max(1.0, opt.seconds / 4.0);
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < 5 && (pass == 0 || seconds_since(t0) < budget_s);
       ++pass) {
    for (const ScenarioSpec& spec : w.specs) {
      const TrialContext ctx = trial0(opt.seed, spec);
      Clock::time_point s = Clock::now();
      const TrialResult reference = campaign::run_trial(spec, ctx);
      tt.untraced_ms.push_back(ms_between(s, Clock::now()));

      Replica rep;
      s = Clock::now();
      try {
        rep = perfbench::run_traced_replica(spec, ctx);
      } catch (const std::exception& e) {
        problems.push_back("replica of '" + spec.name + "' threw: " + e.what());
        return tt;
      }
      tt.traced_ms.push_back(ms_between(s, Clock::now()));
      if (!same_result(rep.result, reference)) {
        problems.push_back("replica of '" + spec.name +
                           "' differs from run_trial");
        return tt;
      }
      tt.replicas++;
      for (const perfbench::PhaseSpan& p : rep.phases) {
        tt.phase_ms[p.name] += p.ms;
        tt.phase_events[p.name] += static_cast<double>(p.events);
      }
      for (int i = 0; i < perfbench::kRxCount; ++i) tt.rx_ms[i] += rep.rx_ms[i];
      tt.world_build_ms += rep.world_build_ms;
      if (rep.has_population) {
        tt.population_replicas++;
        tt.population_build_ms += rep.population_build_ms;
        tt.bytes_per_client += rep.bytes_per_client;
      }
      tt.ntp_queries += static_cast<double>(rep.ntp_queries);
      tt.ntp_kods += static_cast<double>(rep.ntp_kods);
      tt.ntp_rate_limited += static_cast<double>(rep.ntp_rate_limited);
      tt.packets_spoofed += static_cast<double>(rep.packets_spoofed);
    }
  }
  return tt;
}

u64 acquires(const BufferPool::Stats& s) {
  return s.pool_hits + s.fresh_allocs + s.oversize_allocs;
}

/// Per-layer metrics from the window's counter deltas.
void window_layers(const Window& win, const obs::Snapshot& before,
                   const obs::Snapshot& after, const BufferPool::Stats& pool0,
                   const BufferPool::Stats& pool1, std::vector<Metric>& out) {
  const double trials = static_cast<double>(win.trials);
  const u64 n = win.trials;
  auto delta = [&](std::string_view c) {
    return static_cast<double>(after.counter(c) - before.counter(c));
  };
  auto per_trial = [&](const std::string& name, std::string_view counter) {
    out.push_back({name, ratio(delta(counter), trials), "count", n});
  };

  per_trial("sim.events_fired", "sim.events_fired");
  per_trial("sim.events_cancelled", "sim.events_cancelled");
  {
    const obs::HistogramData* h1 = after.histogram("sim.heap_peak");
    const obs::HistogramData* h0 = before.histogram("sim.heap_peak");
    const double sum = static_cast<double>((h1 ? h1->sum : 0) - (h0 ? h0->sum : 0));
    const double cnt =
        static_cast<double>((h1 ? h1->count : 0) - (h0 ? h0->count : 0));
    out.push_back({"sim.heap_peak", ratio(sum, cnt), "count", n});
  }
  const double busy_us = delta("campaign.worker_busy_us");
  const double idle_us = delta("campaign.worker_idle_us");
  out.push_back({"sim.ns_per_event",
                 ratio(busy_us * 1e3, delta("sim.events_fired")), "ns", n});

  per_trial("net.packets_tx", "net.packets_tx");
  per_trial("net.fragments_tx", "net.fragments_tx");
  per_trial("net.fragments_rx", "net.fragments_rx");
  per_trial("net.udp_rx", "net.udp_rx");
  per_trial("net.reasm_completed", "net.reasm_completed");
  per_trial("net.reasm_expired", "net.reasm_expired");

  const double acq = static_cast<double>(acquires(pool1) - acquires(pool0));
  out.push_back({"common.buffer_acquires", ratio(acq, trials), "count", n});
  out.push_back({"common.buffer_pool_hit_ratio",
                 ratio(static_cast<double>(pool1.pool_hits - pool0.pool_hits),
                       acq),
                 "ratio", n});

  per_trial("dns.client_queries", "dns.client_queries");
  per_trial("dns.cache_hits", "dns.cache_hits");
  per_trial("dns.cache_misses", "dns.cache_misses");
  out.push_back({"dns.cache_hit_ratio",
                 ratio(delta("dns.cache_hits"),
                       delta("dns.cache_hits") + delta("dns.cache_misses")),
                 "ratio", n});
  per_trial("dns.upstream_queries", "dns.upstream_queries");
  per_trial("dns.poisoned_served", "dns.poisoned_served");

  per_trial("population.polls", "population.polls");
  per_trial("population.exchanges", "population.exchanges");
  per_trial("population.kod_polls", "population.kod_polls");
  per_trial("population.timeout_polls", "population.timeout_polls");
  per_trial("population.dns_queries", "population.dns_queries");

  out.push_back({"attack.fragments_planted",
                 ratio(static_cast<double>(win.fragments_planted), trials),
                 "count", n});
  out.push_back({"attack.replant_rounds",
                 ratio(static_cast<double>(win.replant_rounds), trials),
                 "count", n});

  out.push_back({"campaign.worker_busy_frac", ratio(busy_us, busy_us + idle_us),
                 "fraction", n});
  out.push_back({"campaign.tail_ms", win.tail_ms_sum / win.rounds, "ms",
                 win.rounds});
  per_trial("campaign.journal_records", "campaign.journal_records_written");
  out.push_back({"campaign.journal_bytes",
                 ratio(delta("campaign.journal_bytes_written"), trials), "B",
                 n});
  out.push_back({"campaign.read_report_ms",
                 win.read_report_ms_sum / win.rounds, "ms", win.rounds});
}

/// Per-layer metrics from the traced replicas.
void trace_layers(const TraceTotals& tt, std::vector<Metric>& out) {
  const double m = static_cast<double>(tt.replicas);
  const u64 n = tt.replicas;
  const double pop = static_cast<double>(tt.population_replicas);

  out.push_back({"ntp.server_queries", ratio(tt.ntp_queries, m), "count", n});
  out.push_back({"ntp.kods", ratio(tt.ntp_kods, m), "count", n});
  out.push_back({"ntp.rate_limited", ratio(tt.ntp_rate_limited, m), "count", n});
  out.push_back({"attack.packets_spoofed", ratio(tt.packets_spoofed, m),
                 "count", n});
  out.push_back({"scenario.world_build_ms", ratio(tt.world_build_ms, m), "ms",
                 n});
  out.push_back({"scenario.population_build_ms",
                 ratio(tt.population_build_ms, pop), "ms",
                 tt.population_replicas});
  out.push_back({"scenario.bytes_per_client", ratio(tt.bytes_per_client, pop),
                 "B", tt.population_replicas});

  double phase_total = 0.0;
  for (const char* name : perfbench::kPhaseNames) {
    const auto it = tt.phase_ms.find(name);
    const double ms = it == tt.phase_ms.end() ? 0.0 : it->second;
    const auto ev = tt.phase_events.find(name);
    const double events = ev == tt.phase_events.end() ? 0.0 : ev->second;
    phase_total += ms;
    out.push_back({std::string("phase.") + name + "_ms", ratio(ms, m), "ms", n});
    out.push_back({std::string("phase.") + name + ".events", ratio(events, m),
                   "count", n});
  }
  double rx_total = 0.0;
  for (int i = 0; i < perfbench::kRxCount; ++i) {
    rx_total += tt.rx_ms[i];
    out.push_back({std::string("net.rx_ms.") + perfbench::kRxStackNames[i],
                   ratio(tt.rx_ms[i], m), "ms", n});
  }
  out.push_back({"sim.other_ms", ratio(phase_total - rx_total, m), "ms", n});

  const double untraced = quantile(tt.untraced_ms, 0.5);
  const double traced = quantile(tt.traced_ms, 0.5);
  out.push_back({"trace.untraced_trial_ms_p50", untraced, "ms",
                 tt.untraced_ms.size()});
  out.push_back({"trace.traced_trial_ms_p50", traced, "ms",
                 tt.traced_ms.size()});
  out.push_back({"trace.overhead_ratio", ratio(traced, untraced), "ratio",
                 tt.traced_ms.size()});
  out.push_back({"trace.replicas", m, "count", 0});
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  obs::append_escaped(out, s.c_str());
  out += '"';
}

void append_json_strings(std::string& out, const std::vector<std::string>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, v[i]);
  }
  out += ']';
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      opt.trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--scale full|tiny");
      }
      opt.tiny = v == "tiny";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + a);
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

int run(const Options& opt) {
  // setup_s is the median of kSetups set-ups, the first counted from
  // process start; window_open_s is process start to the window's opening.
  Workload w;
  std::vector<double> setups;
  std::string warmup;
  for (int k = 0; k < kSetups; ++k) {
    std::string report;
    setups.push_back(
        set_up(opt, k == 0 ? g_process_start : Clock::now(), k, w, report));
    if (k == 0) {
      warmup = std::move(report);
    } else if (report != warmup) {
      throw std::runtime_error("warm-up reports differ between set-ups");
    }
  }
  const double window_open_s = seconds_since(g_process_start);

  const obs::Snapshot snap0 = obs::Registry::instance().snapshot();
  const BufferPool::Stats pool0 = BufferPool::aggregate_stats();
  Window win = run_window(opt, w);
  const obs::Snapshot snap1 = obs::Registry::instance().snapshot();
  const BufferPool::Stats pool1 = BufferPool::aggregate_stats();
  check_replay(opt, w, win);
  const std::string report = win.first.to_json();

  std::vector<Metric> metrics;
  const u64 n = win.trials;
  metrics.push_back({"trials_per_s", static_cast<double>(n) / win.seconds,
                     "1/s", n});
  // The typical trial is the geometric mean over scenarios of each
  // scenario's mean trial, so every scenario weighs the same whatever its
  // length. A mean, not a median: the shared host alternates, every second
  // or so, between a fast and a ~1.6x slower state, and one scenario's
  // trials are so alike that its median reads whichever state held more
  // than half the window, while its mean moves in proportion. The median
  // (over scenarios of each scenario's median) is reported beside it.
  std::vector<double> medians;
  double log_mean_sum = 0.0;
  for (const auto& [name, ms] : win.scenario_trial_ms) {
    medians.push_back(quantile(ms, 0.5));
    double sum = 0.0;
    for (double x : ms) sum += x;
    log_mean_sum += std::log(sum / static_cast<double>(ms.size()));
  }
  const double scenarios = static_cast<double>(win.scenario_trial_ms.size());
  metrics.push_back({"trial_ms_mean", std::exp(log_mean_sum / scenarios), "ms",
                     n});
  metrics.push_back({"trial_ms_p50", quantile(medians, 0.5), "ms", n});
  metrics.push_back({"trial_ms_p90", quantile(win.trial_ms, 0.9), "ms", n});
  metrics.push_back({"setup_s", quantile(setups, 0.5), "s", setups.size()});
  metrics.push_back({"window_open_s", window_open_s, "s", 1});
  metrics.push_back({"failed_trial_frac",
                     ratio(static_cast<double>(win.errors),
                           static_cast<double>(n)),
                     "fraction", n});
  window_layers(win, snap0, snap1, pool0, pool1, metrics);
  if (opt.trace) {
    const TraceTotals tt = run_traced(opt, w, win.problems);
    trace_layers(tt, metrics);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  metrics.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                     "MB", 0});
  std::filesystem::remove_all(opt.work_dir);

  std::string out = "{\"workload\":";
  append_json_string(out, opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"scale\":";
  out += opt.tiny ? "\"tiny\"" : "\"full\"";
  out += ",\"trace\":";
  out += opt.trace ? "true" : "false";
  out += ",\"correct\":";
  out += win.problems.empty() ? "true" : "false";
  out += ",\"problems\":";
  append_json_strings(out, win.problems);
  out += ",\"attempted\":" + std::to_string(win.trials);
  out += ",\"failed\":" + std::to_string(win.errors);
  out += ",\"rounds\":" + std::to_string(win.rounds);
  out += ",\"scenarios\":" + std::to_string(w.specs.size());
  out += ",\"trials_per_round\":" +
         std::to_string(w.specs.size() * static_cast<std::size_t>(w.trials));
  out += ",\"threads\":" + std::to_string(w.threads);
  out += ",\"report_digest\":\"" + digest(report);
  out += "\",\"report_bytes\":" + std::to_string(report.size());
  out += ",\"warmup_digest\":\"" + digest(warmup) + "\"";
  out += ",\"build\":{\"compiler\":";
  append_json_string(out, PERFBENCH_COMPILER);
  out += ",\"build_type\":";
  append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += ",\"obs\":";
  out += DNSTIME_OBS ? "true" : "false";
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, metrics[i].name);
    out += ":{\"value\":";
    append_number(out, metrics[i].value);
    out += ",\"unit\":";
    append_json_string(out, metrics[i].unit);
    out += ",\"samples\":" + std::to_string(metrics[i].samples) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
