// attack_narrative: replay one campaign trial with the failure flight
// recorder attached and print its causal attack chain — which spoofed
// fragment was reassembled, which cache entry it poisoned, which client
// adopted the poisoned answer, and where the chain broke.
//
// The trial is identified exactly the way the campaign runner identifies
// it — (campaign seed, scenario name, trial index) — and the recorder
// observes sim time only, so `--json` reproduces, byte for byte, the
// narrative dump a campaign run with `--dump` writes for the same trial.
//
// Usage:
//   attack_narrative SCENARIO [--trial N] [--seed S] [--json] [--out FILE]
//   attack_narrative --list
//
//   SCENARIO     built-in scenario name (e.g. forensics/frag-filter)
//   --trial N    trial index within the scenario (default 0)
//   --seed S     campaign seed (default 0x5eed, the CampaignConfig default)
//   --json       emit the deterministic narrative JSON instead of text
//   --out FILE   write there instead of stdout
//   --list       print the built-in scenario names and exit
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/cli.h"
#include "campaign/runner.h"
#include "campaign/scenario_spec.h"
#include "campaign/trial.h"
#include "obs/provenance.h"

using namespace dnstime;

namespace {

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s SCENARIO [--trial N] [--seed S] [--json] [--out FILE]\n"
      "       %s --list\n",
      prog, prog);
}

/// Human-readable chain + ring summary (the `--json` form is produced by
/// FlightRecorder::to_json and shared with the campaign runner's dumps).
std::string render_text(const obs::FlightRecorder& flight,
                        const campaign::ScenarioSpec& spec,
                        const campaign::TrialContext& ctx,
                        const campaign::TrialResult& result) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line, "%s trial %u (campaign seed %llu, trial seed %llu)\n",
                spec.name.c_str(), ctx.trial,
                static_cast<unsigned long long>(ctx.campaign_seed),
                static_cast<unsigned long long>(ctx.seed));
  out += line;
  if (!result.error.empty()) {
    out += "result: ERROR: " + result.error + "\n";
  } else {
    std::snprintf(line, sizeof line,
                  "result: %s, duration %.1f s, clock shift %.1f s\n",
                  result.success ? "SUCCESS (clock shifted)"
                                 : "FAILED (clock not shifted)",
                  result.duration_s, result.clock_shift_s);
    out += line;
  }
  out += "\ncausal chain:\n";
  const char* broke = flight.chain_broke_at(result.success);
  for (std::size_t i = 0; i < obs::kChainStageCount; ++i) {
    const auto stage = static_cast<obs::ChainStage>(i);
    const char* name = obs::to_string(stage);
    u64 count = stage == obs::ChainStage::kClockShifted
                    ? (result.success ? 1 : 0)
                    : flight.chain(stage).count;
    std::snprintf(line, sizeof line, "  [%c] %-28s", count > 0 ? 'x' : ' ',
                  name);
    out += line;
    if (count > 0 && stage != obs::ChainStage::kClockShifted) {
      const obs::FlightRecorder::ChainPoint& cp = flight.chain(stage);
      std::snprintf(line, sizeof line, " x%-8llu first @ %.3f s",
                    static_cast<unsigned long long>(count),
                    static_cast<double>(cp.first_ts_ns) / 1e9);
      out += line;
      if (cp.first_ref_seq != 0) {
        std::snprintf(line, sizeof line, "  packet #%u", cp.first_ref_seq);
        out += line;
      }
      if (cp.detail[0] != '\0') {
        out += "  ";
        out += cp.detail;
      }
    } else if (count > 0) {
      out += " (trial succeeded)";
    } else if (broke != nullptr && std::strcmp(name, broke) == 0) {
      out += " <-- attack broke here";
    }
    out += "\n";
  }
  const char* reached = flight.chain_reached(result.success);
  out += "\nchain reached: ";
  out += reached != nullptr ? reached : "(nothing)";
  if (broke != nullptr) {
    out += ", broke at: ";
    out += broke;
  }
  out += "\n";
  std::snprintf(line, sizeof line,
                "ring: %zu of %llu events held (%llu overwritten), "
                "%llu packets stamped\n",
                flight.size(),
                static_cast<unsigned long long>(flight.recorded()),
                static_cast<unsigned long long>(flight.overwritten()),
                static_cast<unsigned long long>(flight.stamps()));
  out += line;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path;
  u64 campaign_seed = 0x5eed;
  u64 trial = 0;
  bool list = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
      continue;
    }
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
      continue;
    }
    const bool takes_value = std::strcmp(arg, "--trial") == 0 ||
                             std::strcmp(arg, "--seed") == 0 ||
                             std::strcmp(arg, "--out") == 0;
    if (takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '%s' requires a value\n", argv[0], arg);
        usage(argv[0]);
        return 2;
      }
      const char* value = argv[++i];
      if (std::strcmp(arg, "--out") == 0) {
        out_path = value;
      } else {
        u64 parsed = 0;
        if (!campaign::parse_u64_token(value, parsed)) {
          std::fprintf(stderr, "%s: invalid value '%s' for flag '%s'\n",
                       argv[0], value, arg);
          usage(argv[0]);
          return 2;
        }
        if (std::strcmp(arg, "--trial") == 0) {
          trial = parsed;
        } else {
          campaign_seed = parsed;
        }
      }
      continue;
    }
    if (arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      usage(argv[0]);
      return 2;
    }
    if (!scenario_name.empty()) {
      std::fprintf(stderr, "%s: more than one scenario given\n", argv[0]);
      usage(argv[0]);
      return 2;
    }
    scenario_name = arg;
  }

#if !DNSTIME_OBS
  std::fprintf(stderr,
               "%s: this build has DNSTIME_OBS=0; provenance recording is "
               "compiled out and narratives would be empty\n",
               argv[0]);
  return 2;
#endif

  const campaign::ScenarioRegistry registry =
      campaign::ScenarioRegistry::builtin();
  if (list) {
    for (const campaign::ScenarioSpec& spec : registry.all()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (scenario_name.empty()) {
    usage(argv[0]);
    return 2;
  }
  const campaign::ScenarioSpec* spec = registry.find(scenario_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s: unknown scenario '%s'; valid names:\n", argv[0],
                 scenario_name.c_str());
    for (const campaign::ScenarioSpec& s : registry.all()) {
      std::fprintf(stderr, "  %s\n", s.name.c_str());
    }
    return 2;
  }
  if (trial > 0xFFFFFFFFull) {
    std::fprintf(stderr, "%s: trial index out of range\n", argv[0]);
    return 2;
  }

  campaign::TrialContext ctx;
  ctx.campaign_seed = campaign_seed;
  ctx.trial = static_cast<u32>(trial);
  ctx.seed = campaign::CampaignRunner::trial_seed(campaign_seed, *spec,
                                                  ctx.trial);

  // Replay exactly as the campaign runner does: meta set before the trial
  // builds its World, exceptions folded into TrialResult::error, the error
  // recorded — so the dump bytes match a runner `--dump` of this trial.
  obs::FlightRecorder flight;
  flight.set_meta(spec->name, campaign_seed, ctx.trial, ctx.seed);
  campaign::TrialResult result;
  {
    obs::ScopedFlightRecorder install(&flight);
    try {
      result = campaign::run_trial(*spec, ctx);
    } catch (const std::exception& e) {
      result.trial = ctx.trial;
      result.seed = ctx.seed;
      result.error = e.what();
    } catch (...) {
      result.trial = ctx.trial;
      result.seed = ctx.seed;
      result.error = "unknown exception";
    }
  }
  if (!result.error.empty()) flight.error(result.error);

  std::string text;
  if (json) {
    obs::FlightRecorder::DumpContext dctx;
    dctx.has_result = true;
    dctx.success = result.success;
    dctx.duration_s = result.duration_s;
    dctx.clock_shift_s = result.clock_shift_s;
    dctx.error = result.error;
    text = flight.to_json(dctx);  // no trailing newline: matches --dump
  } else {
    text = render_text(flight, *spec, ctx, result);
  }

  std::FILE* f =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing: %s\n", argv[0],
                 out_path.c_str(), std::strerror(errno));
    return 1;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = out_path.empty() || std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "%s: failed writing narrative\n", argv[0]);
    return 1;
  }
  return 0;
}
