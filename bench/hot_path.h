// Shared driver for the hot-path microbenchmarks (bench_eventloop_bench,
// bench_netstack_bench): their common CLI, min-of-N timing, the
// flight-recorder toggle, the stdout table and the JSON report that CI
// uploads and tools/check_bench_overhead.py gates.
//
// CLI: [--scale N] [--repeat N] [--out FILE]
//      [--flight-recorder [--baseline-out FILE]]
// --scale and --repeat take positive decimal integers (--scale at least
// the bench's minimum); anything else (garbage, trailing junk, negatives,
// 0) is a usage error, exit 2.
//
// JSON: {"bench":B,"scale":N,"workloads":[{"name":W,"<unit>":U,
// "new_s":S,"new_<unit>_per_sec":R},...]}. The overhead gate reads the
// `new_<unit>_per_sec` key of every workload, so its name is kept as is.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "campaign/cli.h"
#include "common/types.h"
#include "obs/provenance.h"

namespace dnstime::bench {

class HotPathBench {
 public:
  /// `unit` names what the workloads count ("events", "packets");
  /// `default_scale` is the --scale default and `min_scale` the smallest
  /// --scale every workload still does work at.
  HotPathBench(std::string name, std::string unit, u64 default_scale,
               u64 min_scale = 1)
      : name_(std::move(name)),
        unit_(std::move(unit)),
        scale_(default_scale),
        min_scale_(min_scale),
        out_path_("BENCH_" + name_ + ".json") {}

  /// Parses the shared CLI; false (after printing the problem) on error.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      u64 value = 0;
      if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
        if (!campaign::parse_u64_token(argv[++i], value) ||
            value < min_scale_) {
          std::fprintf(stderr,
                       "%s: invalid value '%s' for flag '--scale' (want an "
                       "integer >= %llu)\n",
                       argv[0], argv[i],
                       static_cast<unsigned long long>(min_scale_));
          return false;
        }
        scale_ = value;
      } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
        if (!campaign::parse_u64_token(argv[++i], value) || value == 0 ||
            value > static_cast<u64>(std::numeric_limits<int>::max())) {
          std::fprintf(stderr,
                       "%s: invalid value '%s' for flag '--repeat' (want a "
                       "positive integer)\n",
                       argv[0], argv[i]);
          return false;
        }
        repeat_ = static_cast<int>(value);
      } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        out_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--baseline-out") == 0 &&
                 i + 1 < argc) {
        baseline_out_ = argv[++i];
      } else if (std::strcmp(argv[i], "--flight-recorder") == 0) {
        flight_on_ = true;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--scale N] [--repeat N] [--out FILE] "
                     "[--flight-recorder [--baseline-out FILE]]\n",
                     argv[0]);
        return false;
      }
    }
    if (!baseline_out_.empty() && !flight_on_) {
      std::fprintf(stderr, "--baseline-out requires --flight-recorder\n");
      return false;
    }
    if (flight_on_) flight_.set_meta("bench/" + name_, 0x5eed, 0, 0x5eed);
    header(name_ + " hot path" + (flight_on_ ? " (flight recorder ON)" : ""));
    return true;
  }

  [[nodiscard]] u64 scale() const { return scale_; }

  /// Times `fn` (which returns the number of units it processed) as the
  /// min of --repeat runs: a single run carries scheduler jitter far
  /// larger than the 2% instrumentation budget the overhead gate
  /// enforces, and the minimum is the standard noise-robust estimator for
  /// a deterministic workload.
  ///
  /// With --flight-recorder each repeat runs the workload back to back
  /// with the recorder uninstalled and installed, alternating which half
  /// goes first (ABBA), so both measurements see the same machine
  /// conditions; the recorder-on time is reported and the recorder-off
  /// time goes to --baseline-out. Cross-process comparisons drown a 2%
  /// budget in scheduler noise; this paired in-process form is what the
  /// flight-recorder overhead gate uses.
  template <class Fn>
  void run(std::string workload, Fn&& fn) {
    Result r{.name = std::move(workload)};
    for (int i = 0; i < repeat_; ++i) {
      const bool on_first = (i % 2) != 0;
      for (int half = 0; half < (flight_on_ ? 2 : 1); ++half) {
        const bool with_recorder = flight_on_ && (half == 0) == on_first;
        obs::ScopedFlightRecorder install(with_recorder ? &flight_
                                                        : nullptr);
        auto start = std::chrono::steady_clock::now();
        r.units = fn();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        double& best = with_recorder ? r.on_s : r.off_s;
        best = std::min(best, s);
      }
    }
    results_.push_back(std::move(r));
  }

  /// Prints the table and writes the JSON report(s); the process exit
  /// code.
  int finish() const {
    std::printf("  %-18s %12s %16s\n", "workload", unit_.c_str(),
                (unit_ + "/s").c_str());
    std::printf("  ");
    for (int i = 0; i < 48; ++i) std::printf("-");
    std::printf("\n");
    for (const Result& r : results_) {
      std::printf("  %-18s %12llu %16.0f\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.units),
                  static_cast<double>(r.units) / r.reported_s(flight_on_));
    }
    if (!write_json(out_path_, flight_on_)) return 1;
    if (!baseline_out_.empty() && !write_json(baseline_out_, false)) return 1;
    return 0;
  }

 private:
  struct Result {
    std::string name;
    u64 units = 0;
    /// Best times with the recorder uninstalled (the only side without
    /// --flight-recorder) and installed.
    double off_s = std::numeric_limits<double>::infinity();
    double on_s = std::numeric_limits<double>::infinity();
    [[nodiscard]] double reported_s(bool recorder) const {
      return recorder ? on_s : off_s;
    }
  };

  bool write_json(const std::string& path, bool recorder) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"scale\":%llu,\"workloads\":[",
                 name_.c_str(), static_cast<unsigned long long>(scale_));
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      const double s = r.reported_s(recorder);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"%s\":%llu,\"new_s\":%.4f,"
                   "\"new_%s_per_sec\":%.0f}",
                   i ? "," : "", r.name.c_str(), unit_.c_str(),
                   static_cast<unsigned long long>(r.units), s,
                   unit_.c_str(), static_cast<double>(r.units) / s);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", path.c_str());
    return true;
  }

  std::string name_;
  std::string unit_;
  u64 scale_;
  u64 min_scale_;
  int repeat_ = 3;
  std::string out_path_;
  std::string baseline_out_;
  bool flight_on_ = false;
  obs::FlightRecorder flight_;
  std::vector<Result> results_;
};

}  // namespace dnstime::bench
