// trial_trace: replay one campaign trial with the sim-time tracer attached
// and emit its Chrome trace_event JSON.
//
// The trial is identified exactly the way the campaign runner identifies
// it — (campaign seed, scenario name, trial index) — so the timeline this
// tool writes is the timeline that trial had (or will have) inside any
// campaign with the same seed: trace a slow or failing trial from a report
// without re-running the whole campaign.
//
// Usage:
//   trial_trace SCENARIO [--trial N] [--seed S] [--out FILE]
//   trial_trace --trace-index N [--trials T] [--seed S] [--out FILE]
//   trial_trace --list
//
//   SCENARIO        built-in scenario name (e.g. table2/ntpd-p1), or its
//                   FNV-1a name hash — the journal record key, decimal or
//                   0x-hex — so a scenario can be looked up straight from
//                   a journal shard or a report without knowing its name
//   --trial N       trial index within the scenario (default 0)
//   --trace-index N flattened trial index as the campaign runner counts
//                   them (scenario_index * trials + trial_index over the
//                   built-in registry); an alternative to SCENARIO/--trial
//   --trials T      trials per scenario used to unflatten --trace-index
//                   (default 8, the CampaignConfig default)
//   --seed S        campaign seed (default 0x5eed)
//   --out FILE      write the JSON there instead of stdout
//   --list          print the built-in scenario names and exit
//
// Open the output in Perfetto (ui.perfetto.dev) or chrome://tracing; the
// trial summary goes to stderr so stdout stays valid JSON when piped.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/cli.h"
#include "campaign/runner.h"
#include "campaign/scenario_spec.h"
#include "campaign/store/journal.h"
#include "campaign/trial.h"
#include "obs/trace.h"

using namespace dnstime;

namespace {

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s SCENARIO [--trial N] [--seed S] [--out FILE]\n"
      "       %s --trace-index N [--trials T] [--seed S] [--out FILE]\n"
      "       %s --list\n",
      prog, prog, prog);
}

/// Accepts the journal-key forms of a scenario hash: 0x-prefixed hex or a
/// plain decimal u64.
bool parse_hash_token(const char* s, u64& out) {
  if (s != nullptr && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') &&
      s[2] != '\0') {
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(s + 2, &end, 16);
    if (errno != ERANGE && *end == '\0') {
      out = v;
      return true;
    }
    return false;
  }
  return campaign::parse_u64_token(s, out);
}

/// Scenario lookup by name, falling back to the FNV-1a name hash that
/// keys journal records (so `trial_trace 0xdeadbeef...` works straight
/// from a shard dump). Returns nullptr when neither matches.
const campaign::ScenarioSpec* find_scenario(
    const campaign::ScenarioRegistry& registry, const std::string& token) {
  if (const campaign::ScenarioSpec* spec = registry.find(token)) return spec;
  u64 hash = 0;
  if (!parse_hash_token(token.c_str(), hash)) return nullptr;
  for (const campaign::ScenarioSpec& spec : registry.all()) {
    if (campaign::store::fnv1a(spec.name) == hash) return &spec;
  }
  return nullptr;
}

void list_names(const char* prog, const campaign::ScenarioRegistry& registry) {
  std::fprintf(stderr, "%s: valid scenario names:\n", prog);
  for (const campaign::ScenarioSpec& spec : registry.all()) {
    std::fprintf(stderr, "  %s\n", spec.name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path;
  u64 campaign_seed = 0x5eed;
  u64 trial = 0;
  u64 trace_index = 0;
  u64 trials_per_scenario = 8;  // the CampaignConfig default
  bool have_trace_index = false;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
      continue;
    }
    const bool takes_value = std::strcmp(arg, "--trial") == 0 ||
                             std::strcmp(arg, "--seed") == 0 ||
                             std::strcmp(arg, "--trace-index") == 0 ||
                             std::strcmp(arg, "--trials") == 0 ||
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
        } else if (std::strcmp(arg, "--trace-index") == 0) {
          trace_index = parsed;
          have_trace_index = true;
        } else if (std::strcmp(arg, "--trials") == 0) {
          if (parsed == 0) {
            std::fprintf(stderr, "%s: '--trials' must be at least 1\n",
                         argv[0]);
            usage(argv[0]);
            return 2;
          }
          trials_per_scenario = parsed;
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

  const campaign::ScenarioRegistry registry =
      campaign::ScenarioRegistry::builtin();
  if (list) {
    for (const campaign::ScenarioSpec& spec : registry.all()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (scenario_name.empty() && !have_trace_index) {
    usage(argv[0]);
    return 2;
  }
  if (!scenario_name.empty() && have_trace_index) {
    std::fprintf(stderr,
                 "%s: give either SCENARIO or '--trace-index', not both\n",
                 argv[0]);
    usage(argv[0]);
    return 2;
  }
  const campaign::ScenarioSpec* spec = nullptr;
  if (have_trace_index) {
    // The campaign runner's flattening: scenario_index * trials + trial.
    const u64 total = registry.all().size() * trials_per_scenario;
    if (trace_index >= total) {
      std::fprintf(stderr,
                   "%s: trace index %llu out of range: %zu built-in "
                   "scenarios x %llu trials = %llu flattened trials\n",
                   argv[0], static_cast<unsigned long long>(trace_index),
                   registry.all().size(),
                   static_cast<unsigned long long>(trials_per_scenario),
                   static_cast<unsigned long long>(total));
      return 2;
    }
    spec = &registry.all()[trace_index / trials_per_scenario];
    trial = trace_index % trials_per_scenario;
  } else {
    spec = find_scenario(registry, scenario_name);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "%s: unknown scenario '%s' (not a built-in name or "
                   "FNV-1a name hash)\n",
                   argv[0], scenario_name.c_str());
      list_names(argv[0], registry);
      return 2;
    }
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

  obs::TraceRecorder recorder;
  recorder.set_meta(spec->name, campaign_seed, ctx.trial);
  campaign::TrialResult result;
  {
    obs::ScopedTrace install(&recorder);
    try {
      result = campaign::run_trial(*spec, ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: trial threw: %s\n", argv[0], e.what());
      return 1;
    }
  }

  std::fprintf(stderr,
               "%s trial %u (seed %llu): %s, duration %.1f s, shift %.1f s, "
               "%zu trace events%s\n",
               spec->name.c_str(), ctx.trial,
               static_cast<unsigned long long>(ctx.seed),
               result.error.empty()
                   ? (result.success ? "success" : "no success")
                   : result.error.c_str(),
               result.duration_s, result.clock_shift_s, recorder.size(),
               recorder.dropped() > 0 ? " (events dropped!)" : "");

  const std::string json = recorder.to_json() + "\n";
  std::FILE* f = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing: %s\n", argv[0],
                 out_path.c_str(), std::strerror(errno));
    return 1;
  }
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) ==
                     json.size();
  const bool closed = out_path.empty() || std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "%s: failed writing trace\n", argv[0]);
    return 1;
  }
  return 0;
}
