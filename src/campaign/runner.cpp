#include "campaign/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "campaign/store/journal.h"
#include "campaign/store/journal_reader.h"
#include "campaign/store/shard_writer.h"
#include "campaign/trial.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace dnstime::campaign {
namespace {

enum class DumpOn { kAuto, kError, kTimeout, kAttackFailed, kAlways };

DumpOn parse_dump_on(const std::string& s) {
  if (s == "auto") return DumpOn::kAuto;
  if (s == "error") return DumpOn::kError;
  if (s == "timeout") return DumpOn::kTimeout;
  if (s == "attack-failed") return DumpOn::kAttackFailed;
  if (s == "always") return DumpOn::kAlways;
  throw std::invalid_argument(
      "unknown dump predicate '" + s +
      "' (expected auto, error, timeout, attack-failed or always)");
}

#if DNSTIME_OBS
/// A deadline timeout presents as an unsuccessful trial that consumed the
/// whole attack deadline without raising an error.
bool timed_out(const ScenarioSpec& spec, const TrialResult& r) {
  return !r.success && r.error.empty() &&
         r.duration_s >= spec.stop.deadline.to_seconds() - 1e-9;
}

bool should_dump(DumpOn mode, const ScenarioSpec& spec,
                 const TrialResult& r) {
  switch (mode) {
    case DumpOn::kAuto:
      return !r.error.empty() || timed_out(spec, r);
    case DumpOn::kError:
      return !r.error.empty();
    case DumpOn::kTimeout:
      return timed_out(spec, r);
    case DumpOn::kAttackFailed:
      return !r.success;
    case DumpOn::kAlways:
      return true;
  }
  return false;
}

/// `<scenario>-t<trial>.json`, scenario sanitised to filename-safe chars
/// ('/' in names like "table2/ntpd-known" becomes '_').
std::string dump_file_name(const std::string& scenario, u32 trial) {
  std::string name;
  name.reserve(scenario.size() + 16);
  for (char c : scenario) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    name.push_back(ok ? c : '_');
  }
  name += "-t";
  name += std::to_string(trial);
  name += ".json";
  return name;
}
#endif  // DNSTIME_OBS

}  // namespace

u64 CampaignRunner::trial_seed(u64 campaign_seed, const ScenarioSpec& scenario,
                               u32 trial) {
  // FNV-1a over the scenario name (the same hash that keys journal
  // records): the scenario's contribution to a trial seed depends on its
  // identity, not its position in the campaign.
  return mix_seed(campaign_seed, store::fnv1a(scenario.name), trial);
}

u32 CampaignRunner::resolve_threads(std::size_t pending) const {
  u32 threads = config_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Oversubscription is harmless (reports never depend on the pool size),
  // but an absurd request would burn through OS threads — and one shard
  // writer each — before failing with EAGAIN; 1024 workers saturates any
  // realistic host.
  constexpr u32 kMaxThreads = 1024;
  threads = std::min(threads, kMaxThreads);
  return static_cast<u32>(
      std::min<std::size_t>(threads, std::max<std::size_t>(pending, 1)));
}

void CampaignRunner::execute(const std::vector<ScenarioSpec>& scenarios,
                             const std::vector<Journaled>* journaled,
                             u32 threads, const TrialSink& sink) const {
  const u32 trials = config_.trials;
  const std::size_t total = scenarios.size() * trials;

  const bool tracing = !config_.trace_path.empty();
  std::string trace_json;  // written only by the traced trial's worker

#if DNSTIME_OBS
  const bool dumping = !config_.dump_dir.empty();
  const DumpOn dump_mode =
      dumping ? parse_dump_on(config_.dump_on) : DumpOn::kAuto;
  if (dumping) std::filesystem::create_directories(config_.dump_dir);
#endif

  // Live progress stream (JSON Lines). Opened before any trial runs so a
  // bad path fails the campaign up front; writes after that are
  // best-effort (a full disk must not kill hours of trials over a watch
  // stream). Everything below that touches wall time feeds only this
  // stream, which CampaignConfig documents as outside the byte-identity
  // contract.
  std::FILE* progress_file = nullptr;
  if (!config_.progress_path.empty()) {
    progress_file = std::fopen(config_.progress_path.c_str(), "wb");
    if (progress_file == nullptr) {
      throw std::runtime_error("cannot open progress file '" +
                               config_.progress_path + "' for writing");
    }
  }
  const auto close_file = [](std::FILE* f) {
    if (f != nullptr) std::fclose(f);
  };
  std::unique_ptr<std::FILE, decltype(close_file)> progress_guard(
      progress_file, close_file);
  struct ScenarioProgress {
    u32 done = 0;
    u32 successes = 0;
  };
  std::vector<ScenarioProgress> progress_state(
      progress_file != nullptr ? scenarios.size() : 0);
  // Both guarded by error_mutex: trials run by this call (the ETA's rate)
  // and trials done in the campaign, journaled ones included.
  std::size_t executed_total = 0;
  std::size_t campaign_done = 0;
  if (progress_file != nullptr && journaled != nullptr) {
    for (std::size_t i = 0; i < total; ++i) {
      if ((*journaled)[i] == Journaled::kNo) continue;
      ScenarioProgress& sp = progress_state[i / trials];
      sp.done++;
      if ((*journaled)[i] == Journaled::kSuccess) sp.successes++;
      campaign_done++;
    }
  }
  // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
  const auto campaign_start = std::chrono::steady_clock::now();

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;  // serialises progress_ and the error slots
  std::exception_ptr sink_error;      // first throw from sink, if any
  std::exception_ptr progress_error;  // first throw from progress_, if any
  std::exception_ptr dump_error;      // first failed narrative dump write
  auto worker = [&](u32 worker_id) {
#if DNSTIME_OBS
    // Wall-clock utilisation, exported once per worker on any exit path.
    // These are the only wall-time metrics in the campaign and exist only
    // in the (nondeterministic by nature) metrics section, never in the
    // report body.
    struct WallObs {
      // det-lint: allow(wallclock) worker-utilisation telemetry; feeds only
      std::chrono::steady_clock::time_point start =
          // det-lint: allow(wallclock) the --metrics section, never a report
          std::chrono::steady_clock::now();
      u64 executed = 0;
      double busy_s = 0.0;
      ~WallObs() {
        const double total_s =
            // det-lint: allow(wallclock) busy/idle telemetry, metrics-only
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const double idle_s = total_s > busy_s ? total_s - busy_s : 0.0;
        DNSTIME_COUNT("campaign.workers");
        DNSTIME_COUNT_ADD("campaign.trials_executed", executed);
        DNSTIME_COUNT_ADD("campaign.worker_busy_us",
                          static_cast<u64>(busy_s * 1e6));
        DNSTIME_COUNT_ADD("campaign.worker_idle_us",
                          static_cast<u64>(idle_s * 1e6));
      }
    } wall;
#endif
    for (std::size_t i = next.fetch_add(1); i < total;
         i = next.fetch_add(1)) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (journaled != nullptr && (*journaled)[i] != Journaled::kNo) {
        continue;
      }
      const std::size_t scenario_idx = i / trials;
      const u32 trial_idx = static_cast<u32>(i % trials);
      const ScenarioSpec& spec = scenarios[scenario_idx];
      TrialContext ctx;
      ctx.campaign_seed = config_.seed;
      ctx.trial = trial_idx;
      ctx.seed = trial_seed(config_.seed, spec, trial_idx);
#if DNSTIME_OBS
      // det-lint: allow(wallclock) trial_wall_us histogram, metrics-only
      const auto trial_start = std::chrono::steady_clock::now();
#endif
      TrialResult result;
      auto execute_trial = [&] {
        try {
          result = run_trial(spec, ctx);
        } catch (const std::exception& e) {
          result.trial = trial_idx;
          result.seed = ctx.seed;
          result.error = e.what();
        } catch (...) {
          result.trial = trial_idx;
          result.seed = ctx.seed;
          result.error = "unknown exception";
        }
      };
#if DNSTIME_OBS
      // Always-on flight recorder: installed before the trial constructs
      // its World (the World feeds it the attacker-controlled addresses)
      // and observing sim time only, so recording never perturbs results.
      obs::FlightRecorder flight;
      flight.set_meta(spec.name, config_.seed, trial_idx, ctx.seed);
      obs::ScopedFlightRecorder flight_install(&flight);
#endif
      if (tracing && i == config_.trace_index) {
        obs::TraceRecorder recorder;
        recorder.set_meta(spec.name, config_.seed, trial_idx);
        obs::ScopedTrace install(&recorder);
        execute_trial();
        trace_json = recorder.to_json();  // read after the pool joins
        DNSTIME_COUNT_ADD("obs.trace_events", recorder.size());
        DNSTIME_COUNT_ADD("obs.trace_dropped", recorder.dropped());
      } else {
        execute_trial();
      }
#if DNSTIME_OBS
      if (!result.error.empty()) flight.error(result.error);
      DNSTIME_HIST("obs.flight_ring_occupancy",
                   static_cast<u64>(flight.size()));
      DNSTIME_COUNT_ADD("obs.flight_events", flight.recorded());
      DNSTIME_COUNT_ADD("obs.flight_overwritten", flight.overwritten());
      if (dumping && should_dump(dump_mode, spec, result)) {
        obs::FlightRecorder::DumpContext dctx;
        dctx.has_result = true;
        dctx.success = result.success;
        dctx.duration_s = result.duration_s;
        dctx.clock_shift_s = result.clock_shift_s;
        dctx.error = result.error;
        const std::string json = flight.to_json(dctx);
        const std::string path =
            (std::filesystem::path(config_.dump_dir) /
             dump_file_name(spec.name, trial_idx))
                .string();
        std::FILE* f = std::fopen(path.c_str(), "wb");
        bool ok = f != nullptr;
        if (ok) {
          ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
          ok = (std::fclose(f) == 0) && ok;
        }
        if (!ok) {
          // Losing forensics is worth failing the run over, but not worth
          // aborting trials already in flight: capture the first write
          // failure and rethrow it after the pool joins.
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!dump_error) {
            dump_error = std::make_exception_ptr(std::runtime_error(
                "cannot write narrative dump '" + path + "'"));
          }
        }
      }
#endif
#if DNSTIME_OBS
      const double trial_s =
          // det-lint: allow(wallclock) trial_wall_us histogram, metrics-only
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        trial_start)
              .count();
      wall.busy_s += trial_s;
      wall.executed++;
      DNSTIME_HIST("campaign.trial_wall_us", static_cast<u64>(trial_s * 1e6));
#endif
      // Store the result before notifying: a throwing or slow progress
      // callback must never lose (or observe a not-yet-stored) trial.
      const TrialResult* stored = nullptr;
      try {
        stored = &sink(worker_id, scenario_idx, trial_idx, std::move(result));
      } catch (...) {
        // A sink failure (e.g. journal disk full) means results are being
        // lost: stop the campaign and rethrow from run() after the join.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!sink_error) sink_error = std::current_exception();
        abort.store(true);
        return;
      }
      if (progress_file != nullptr) {
        const double elapsed_s =
            // det-lint: allow(wallclock) ETA for the progress stream only
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          campaign_start)
                .count();
        std::lock_guard<std::mutex> lock(error_mutex);
        ScenarioProgress& sp = progress_state[scenario_idx];
        sp.done++;
        if (stored->success) sp.successes++;
        executed_total++;
        campaign_done++;
        const WilsonInterval ci = wilson_interval(sp.successes, sp.done);
        const std::size_t remaining = total - campaign_done;
        std::string line;
        line.reserve(256);
        line += "{\"scenario\":\"";
        obs::append_escaped(line, spec.name.c_str());
        line += "\",\"trial\":";
        line += std::to_string(trial_idx);
        line += ",\"success\":";
        line += stored->success ? "true" : "false";
        line += ",\"done\":";
        line += std::to_string(sp.done);
        line += ",\"trials\":";
        line += std::to_string(trials);
        line += ",\"successes\":";
        line += std::to_string(sp.successes);
        line += ",\"rate\":";
        obs::append_double(line, static_cast<double>(sp.successes) /
                                     static_cast<double>(sp.done));
        line += ",\"wilson_low\":";
        obs::append_double(line, ci.low);
        line += ",\"wilson_high\":";
        obs::append_double(line, ci.high);
        line += ",\"campaign_done\":";
        line += std::to_string(campaign_done);
        line += ",\"campaign_total\":";
        line += std::to_string(total);
        line += ",\"elapsed_s\":";
        obs::append_double(line, elapsed_s);
        line += ",\"eta_s\":";
        obs::append_double(line,
                           elapsed_s * static_cast<double>(remaining) /
                               static_cast<double>(executed_total));
        line += "}\n";
        std::fputs(line.c_str(), progress_file);
        std::fflush(progress_file);
      }
      if (progress_) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!progress_error) {
          try {
            progress_(spec, *stored);
          } catch (...) {
            // An escaping exception on a worker thread would terminate the
            // process; capture the first one and rethrow it from run()
            // after the pool joins. Later trials still execute, but their
            // progress notifications are suppressed.
            progress_error = std::current_exception();
          }
        }
      }
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (u32 t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
  }
  if (sink_error) std::rethrow_exception(sink_error);
  if (progress_error) std::rethrow_exception(progress_error);
  if (dump_error) std::rethrow_exception(dump_error);

  if (tracing) {
    if (trace_json.empty()) {
      // Resumed campaign whose traced trial was already journaled: nothing
      // re-executed, so there is nothing to trace.
      std::fprintf(stderr,
                   "dnstime: trace index %llu was skipped (already "
                   "journaled); no trace written to %s\n",
                   static_cast<unsigned long long>(config_.trace_index),
                   config_.trace_path.c_str());
      return;
    }
    std::FILE* f = std::fopen(config_.trace_path.c_str(), "wb");
    if (f == nullptr) {
      throw std::runtime_error("cannot open trace file '" +
                               config_.trace_path + "' for writing");
    }
    const std::size_t written =
        std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    const bool ok = written == trace_json.size() && std::fclose(f) == 0;
    if (!ok) {
      throw std::runtime_error("short write to trace file '" +
                               config_.trace_path + "'");
    }
  }
}

CampaignReport CampaignRunner::run(
    const std::vector<ScenarioSpec>& scenarios) const {
  if (!config_.trace_path.empty()) {
    const std::size_t total = scenarios.size() * config_.trials;
    if (config_.trace_index >= total) {
      throw std::invalid_argument(
          "trace index " + std::to_string(config_.trace_index) +
          " out of range: campaign has " + std::to_string(total) +
          " trials (scenario_index * trials + trial_index)");
    }
  }
  if (!config_.dump_dir.empty()) {
    (void)parse_dump_on(config_.dump_on);  // reject bad predicates early
#if !DNSTIME_OBS
    throw std::invalid_argument(
        "narrative dumps require an observability build (DNSTIME_OBS=1)");
#endif
  }
  return config_.journal_dir.empty() ? run_in_memory(scenarios)
                                     : run_journaled(scenarios);
}

CampaignReport CampaignRunner::run_in_memory(
    const std::vector<ScenarioSpec>& scenarios) const {
  const u32 trials = config_.trials;

  // One pre-sized slot per (scenario, trial): workers write disjoint slots,
  // so the only synchronisation the results need is the final join.
  std::vector<std::vector<TrialResult>> results(scenarios.size());
  for (auto& slot : results) slot.resize(trials);

  execute(scenarios, /*journaled=*/nullptr,
          resolve_threads(scenarios.size() * trials),
          [&results](u32, std::size_t scenario_idx, u32 trial_idx,
                     TrialResult&& r) -> const TrialResult& {
            results[scenario_idx][trial_idx] = std::move(r);
            return results[scenario_idx][trial_idx];
          });

  CampaignReport report;
  report.seed = config_.seed;
  report.trials_per_scenario = trials;
  report.scenarios.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    report.scenarios.push_back(
        ScenarioAggregate::from_results(scenarios[i], std::move(results[i])));
  }
  return report;
}

CampaignReport CampaignRunner::run_journaled(
    const std::vector<ScenarioSpec>& scenarios) const {
  namespace fs = std::filesystem;
  const u32 trials = config_.trials;
  const std::size_t total = scenarios.size() * trials;
  const std::string& dir = config_.journal_dir;

  const store::JournalMeta meta =
      store::JournalMeta::describe(config_.seed, trials, scenarios);
  {
    // Fail before running (or journaling) anything: records are keyed by
    // scenario-name hash, so duplicate names — legal nowhere, but only
    // caught lazily on the in-memory path — would make the journal
    // unreadable after hours of work instead of erroring now.
    std::unordered_map<u64, const std::string*> names;
    names.reserve(meta.scenarios.size());
    for (const store::JournalMeta::Scenario& s : meta.scenarios) {
      auto [it, inserted] = names.emplace(store::fnv1a(s.name), &s.name);
      if (!inserted) {
        throw std::invalid_argument(
            "cannot journal campaign: scenario name '" + s.name +
            (*it->second == s.name ? "' is duplicated"
                                   : "' hash-collides with '" +
                                         *it->second + "'"));
      }
    }
  }
  fs::create_directories(dir);

  store::JournalScan scan = store::scan_journal(dir);
  if (!scan.shards.empty() && !config_.resume) {
    throw std::runtime_error(
        "journal directory '" + dir +
        "' already contains shards; pass resume (--resume) to continue "
        "that campaign or point --journal at a fresh directory");
  }

  std::vector<Journaled> journaled;
  std::size_t done = 0;
  u32 next_shard_id = 0;
  for (const store::ShardState& st : scan.shards) {
    next_shard_id = std::max(next_shard_id, st.shard_id + 1);
  }
  if (config_.resume && scan.found) {
    if (scan.meta.campaign_seed != meta.campaign_seed) {
      throw std::runtime_error(
          "cannot resume: journal '" + dir + "' was written with seed " +
          std::to_string(scan.meta.campaign_seed) + ", this campaign uses " +
          std::to_string(meta.campaign_seed));
    }
    if (scan.meta.trials_per_scenario != meta.trials_per_scenario) {
      throw std::runtime_error(
          "cannot resume: journal '" + dir + "' ran " +
          std::to_string(scan.meta.trials_per_scenario) +
          " trials/scenario, this campaign runs " +
          std::to_string(meta.trials_per_scenario));
    }
    if (scan.meta.fingerprint() != meta.fingerprint()) {
      throw std::runtime_error("cannot resume: journal '" + dir +
                               "' describes a different scenario set");
    }
    journaled.assign(total, Journaled::kNo);
    for (std::size_t s = 0; s < scan.done.size(); ++s) {
      for (u32 t = 0; t < trials; ++t) {
        if (scan.done[s][t] != 0) {
          journaled[s * trials + t] = scan.succeeded[s][t] != 0
                                          ? Journaled::kSuccess
                                          : Journaled::kFailure;
          done++;
        }
      }
    }
  }
  if (config_.resume) {
    // Identity verified: make the journal physically clean before
    // appending new shards — torn tails are cut back to the last valid
    // frame, header-less crash debris is removed.
    store::truncate_torn_tails(scan);
  }

  const std::size_t pending = total - done;
  const u32 threads = resolve_threads(pending);

  // One private shard per worker: the journal write path takes no lock.
  // Writers open their file lazily, so an idle worker leaves no shard.
  std::vector<store::ShardWriter> writers;
  writers.reserve(threads);
  for (u32 w = 0; w < threads; ++w) {
    writers.emplace_back(dir, meta, next_shard_id + w);
  }
  if (pending > 0) {
    execute(scenarios, journaled.empty() ? nullptr : &journaled, threads,
            [&writers](u32 worker_id, std::size_t scenario_idx, u32,
                       TrialResult&& r) -> const TrialResult& {
              writers[worker_id].append(static_cast<u32>(scenario_idx), r);
              return r;  // the worker's local outlives the progress call
            });
  }
  for (store::ShardWriter& w : writers) w.close();

  // Streaming fold over the shards merged back into trial-index order: no
  // results vector ever holds the campaign — resident TrialResult storage
  // stays O(workers + scenarios); only the exact p50/p90 quantiles keep
  // per-success duration samples (8 bytes each) inside the builders.
  std::vector<ScenarioAggregateBuilder> builders;
  builders.reserve(scenarios.size());
  for (const ScenarioSpec& spec : scenarios) {
    builders.emplace_back(spec.name, to_string(spec.attack),
                          /*keep_results=*/false);
  }
  std::vector<u32> counts(scenarios.size(), 0);
  if (total > 0) {
    store::JournalMerge merge(dir);
    if (merge.valid()) {
      store::JournalRecord rec;
      while (merge.next(rec)) {
        counts[rec.scenario]++;
        builders[rec.scenario].add(std::move(rec.result));
      }
    }
  }
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (counts[s] != trials) {
      throw std::runtime_error(
          "journal '" + dir + "' is incomplete after the run: scenario '" +
          scenarios[s].name + "' has " + std::to_string(counts[s]) + " of " +
          std::to_string(trials) + " trials");
    }
  }

  CampaignReport report;
  report.seed = config_.seed;
  report.trials_per_scenario = trials;
  report.scenarios.reserve(builders.size());
  for (ScenarioAggregateBuilder& b : builders) {
    report.scenarios.push_back(std::move(b).finish());
  }
  return report;
}

}  // namespace dnstime::campaign
