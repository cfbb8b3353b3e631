// campaign_watch: tail the JSON Lines file a campaign writes with
// `--progress FILE` and render a live per-scenario table — trials done,
// success rate with its 95% Wilson interval, and the campaign-level ETA.
//
// The file is read from its start and then followed at its end offset;
// every chunk goes through ProgressMerger, which keeps a partial line (a
// writer mid-fprintf, or a read racing a write) buffered until its
// newline arrives.
//
// Usage:
//   campaign_watch FILE [--once] [--interval MS]
//
//   FILE           the --progress file of a campaign
//   --once         render the current state once and exit (CI / scripting)
//   --interval MS  poll interval in follow mode (default 500; an integer
//                  in 1..86400000)
//
// Follow mode exits on its own when the stream reports the campaign
// complete (campaign_done == campaign_total).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "campaign/cli.h"
#include "campaign/progress_merge.h"

namespace {

using dnstime::campaign::ProgressMerger;

/// Longest accepted --interval (one day): larger values would overflow
/// std::chrono::milliseconds' signed count and turn the sleep into a spin.
constexpr dnstime::u64 kMaxIntervalMs = 86'400'000;

/// Reads whatever bytes are newly available on `file` into the merger.
/// Returns true when anything arrived.
bool drain(std::FILE* file, ProgressMerger& merger) {
  bool got = false;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, file)) > 0) {
    merger.feed(buf, n);
    got = true;
  }
  std::clearerr(file);  // EOF is transient while the writer is live
  return got;
}

void render(const ProgressMerger::Snapshot& snap, bool clear) {
  std::string out;
  if (clear) out += "\x1b[H\x1b[J";  // cursor home + clear to end
  char line[256];
  std::snprintf(line, sizeof line,
                "campaign: %llu/%llu trials  elapsed %.1f s  eta %.1f s\n",
                static_cast<unsigned long long>(snap.campaign_done),
                static_cast<unsigned long long>(snap.campaign_total),
                snap.elapsed_s, snap.eta_s);
  out += line;
  std::snprintf(line, sizeof line, "%-28s %9s %6s %7s  %s\n", "scenario",
                "done", "succ", "rate", "95% CI");
  out += line;
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    std::snprintf(line, sizeof line,
                  "%-28s %5llu/%-3llu %6llu %7.3f  [%.3f, %.3f]\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.done),
                  static_cast<unsigned long long>(row.trials),
                  static_cast<unsigned long long>(row.successes), row.rate,
                  row.wilson_low, row.wilson_high);
    out += line;
  }
  if (snap.bad_lines > 0) {
    std::snprintf(line, sizeof line, "(%llu malformed lines ignored)\n",
                  static_cast<unsigned long long>(snap.bad_lines));
    out += line;
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool once = false;
  dnstime::u64 interval_ms = 500;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--once") == 0) {
      once = true;
      continue;
    }
    if (std::strcmp(arg, "--interval") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '--interval' requires a value\n",
                     argv[0]);
        return 2;
      }
      if (!dnstime::campaign::parse_u64_token(argv[++i], interval_ms) ||
          interval_ms == 0 || interval_ms > kMaxIntervalMs) {
        std::fprintf(stderr,
                     "%s: invalid --interval value '%s' (want an integer "
                     "of milliseconds in 1..%llu)\n",
                     argv[0], argv[i],
                     static_cast<unsigned long long>(kMaxIntervalMs));
        return 2;
      }
      continue;
    }
    if (arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      std::fprintf(stderr, "usage: %s FILE [--once] [--interval MS]\n",
                   argv[0]);
      return 2;
    }
    if (!path.empty()) {
      std::fprintf(stderr, "%s: more than one path given\n", argv[0]);
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s FILE [--once] [--interval MS]\n",
                 argv[0]);
    return 2;
  }

  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::fprintf(stderr, "%s: '%s' is a directory, not a --progress file\n",
                 argv[0], path.c_str());
    return 2;
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s' for reading\n", argv[0],
                 path.c_str());
    return 1;
  }

  ProgressMerger merger;
  bool dirty = false;
  for (;;) {
    if (drain(file, merger)) dirty = true;

    const ProgressMerger::Snapshot snap = merger.snapshot();
    if (once) {
      render(snap, /*clear=*/false);
      return 0;
    }
    if (dirty) {
      render(snap, /*clear=*/true);
      dirty = false;
    }
    if (snap.campaign_total > 0 && snap.campaign_done >= snap.campaign_total) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
