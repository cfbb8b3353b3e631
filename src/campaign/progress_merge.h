// Reader for the campaign progress stream (JSON Lines) that
// CampaignConfig::progress_path names. Every line the runner writes
// carries one scenario's cumulative counts plus the campaign-level
// done/total/elapsed/ETA, so the newest line per scenario is its current
// state. ProgressMerger folds those lines into one table: the success
// rate and Wilson interval are recomputed from the counts.
//
// The stream is fed in arbitrary chunks (tail -f style); bytes after the
// last newline are carried until their line completes, so partial reads
// never produce torn lines.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace dnstime::campaign {

class ProgressMerger {
 public:
  /// Appends a chunk of the stream. Complete lines are folded
  /// immediately, the tail is buffered.
  void feed(const char* data, std::size_t len);

  struct MergedRow {
    std::string name;
    u64 done = 0;
    u64 trials = 0;  ///< per-scenario target
    u64 successes = 0;
    double rate = 0.0;
    double wilson_low = 0.0;
    double wilson_high = 1.0;
  };

  struct Snapshot {
    std::vector<MergedRow> rows;  ///< first-seen order
    u64 campaign_done = 0;   ///< from the newest line
    u64 campaign_total = 0;
    double elapsed_s = 0.0;
    double eta_s = 0.0;
    u64 lines = 0;
    u64 bad_lines = 0;
  };

  /// The current view. Rates/intervals are recomputed from the counts.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  void fold_line(const std::string& line);

  std::string carry_;  ///< bytes after the last newline
  Snapshot state_;     ///< rows hold counts only; snapshot() adds rates
  std::unordered_map<std::string, std::size_t> index_;  ///< name -> row
};

}  // namespace dnstime::campaign
