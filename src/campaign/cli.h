// Shared command-line parsing for campaign-driven binaries (benches and
// examples), so every tool accepts the same flags with the same error
// behaviour: unknown flags, missing values and malformed numbers are
// reported, not silently skipped or zeroed. Because journaling lives in
// CampaignConfig, --journal/--resume give every campaign tool
// crash-resumable persistence with no bespoke flag code. Every tool
// executes its trials one way — CampaignRunner on --threads worker threads
// of one process — so every flag here takes effect on every campaign.
#pragma once

#include <string>

#include "campaign/runner.h"
#include "common/types.h"

namespace dnstime::campaign {

/// Strict unsigned-decimal token parse for flag values: the whole token
/// must be decimal digits and fit in a u64. std::strtoull alone accepts
/// leading whitespace, '+'/'-' (negatives wrap around!) and stops at
/// trailing junk — all of which must be errors for a flag value. Shared
/// by every CLI in the repo so none of them parses numbers more loosely.
[[nodiscard]] bool parse_u64_token(const char* s, u64& out);

struct CliOptions {
  CampaignConfig config;
  std::string filter;  ///< scenario name prefix (tools define the default)
  std::string out;     ///< --out: report destination path ("" = stdout)
  bool json = false;
  bool metrics = false;  ///< --metrics: append process telemetry to report
  bool ok = true;  ///< false => a parse error was printed to stderr
};

/// Parses the shared campaign flags: --trials N, --threads T, --seed S,
/// --journal DIR, --resume, --out PATH, --json, --metrics, --trace FILE,
/// --trace-index N, --dump DIR, --dump-on PRED, --progress FILE,
/// --log-level LEVEL and (when `scenario_flags` is set) --filter PREFIX.
/// Trials run on --threads worker threads of this process; --journal plus
/// --resume is the crash-recovery path (a killed run continues where its
/// journal ends).
/// `defaults` seeds the returned options. --dump/--dump-on/--progress
/// land in CampaignConfig::dump_dir/dump_on/progress_path (narrative
/// dumps and the live progress stream; see runner.h).
/// --log-level applies immediately (Logger::set_level); --trace/--trace-index
/// land in CampaignConfig::trace_path/trace_index. A flag that cannot take
/// effect is an error: --trace-index without --trace, --dump-on without
/// --dump, --resume without --journal. Numeric values must be full
/// unsigned-decimal tokens in range (parse_u64_token) — garbage, trailing
/// junk, negatives and overflow are reported like unknown flags (never
/// silently parsed as 0), and --trials additionally rejects 0.
/// On any error, prints the problem and a usage line to stderr and
/// returns ok = false.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   CliOptions defaults,
                                   bool scenario_flags = false);

/// Writes the report — to_json() when opts.json, to_table() otherwise —
/// to opts.out, or stdout when opts.out is empty. Journaled campaigns
/// (config.journal_dir set) serialise aggregates only: the per-trial rows
/// live in the journal and store::read_report() rebuilds them. With
/// opts.metrics, a telemetry section (obs registry snapshot + process-wide
/// buffer-pool stats) is appended: a "metrics" key in JSON, a trailing
/// block in table form. Without it, output is byte-identical to what the
/// tool always produced. Returns false (with a message on stderr) on I/O
/// failure.
[[nodiscard]] bool write_report(const CliOptions& opts,
                                const CampaignReport& report);

/// The table-form --metrics section ("== metrics ==" block) that
/// write_report appends. For tools that print their own table report to
/// stdout and so only call write_report for --out/--json.
[[nodiscard]] std::string metrics_table();

}  // namespace dnstime::campaign
