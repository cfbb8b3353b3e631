// Reading side of the sharded trial journal: directory scans for resume,
// torn-tail truncation, a streaming k-way merge back into trial-index
// order, and full CampaignReport reconstruction.
//
// Tolerance contract: a shard's valid prefix ends at the first frame that
// is short, oversized, CRC-mismatched or undecodable — everything after a
// crash's torn final write is treated as never journaled and simply re-run
// on resume. A shard whose header itself is torn contributes nothing (and
// is deleted by truncate_torn_tails). Two conditions are hard errors, not
// tolerance cases: a shard whose header decodes to a *different* campaign
// (seed, trials or scenario set — resuming must never silently mix
// campaigns), and a shard file that exists but cannot be opened (its
// contents are unknown, so skipping it would fabricate an incomplete
// campaign or let resume destroy and re-run safe trials).
#pragma once

#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "campaign/report.h"
#include "campaign/store/journal.h"

namespace dnstime::campaign::store {

struct ShardState {
  std::string path;
  u32 shard_id = 0;      ///< parsed from the filename
  bool header_ok = false;
  u64 valid_bytes = 0;   ///< header + every valid frame
  u64 file_bytes = 0;    ///< actual size; > valid_bytes means a torn tail
  u64 records = 0;
};

struct JournalScan {
  bool found = false;  ///< at least one shard with a valid header
  JournalMeta meta;    ///< identity shared by all shards (when found)
  std::vector<ShardState> shards;  ///< sorted by filename
  /// done[scenario][trial] != 0 iff a valid record exists for that pair.
  std::vector<std::vector<u8>> done;
  /// succeeded[scenario][trial] != 0 iff that pair's record — the copy
  /// from the first shard by name, the one JournalMerge yields — reports
  /// a successful attack.
  std::vector<std::vector<u8>> succeeded;
  u64 records = 0;  ///< distinct (scenario, trial) pairs journaled
};

/// Shard files under `dir`, sorted by name ([] if the directory is absent).
[[nodiscard]] std::vector<std::string> list_shards(const std::string& dir);

/// Walks every shard's valid prefix and marks journaled trials. Throws
/// std::runtime_error if shards disagree on the campaign identity.
[[nodiscard]] JournalScan scan_journal(const std::string& dir);

/// Makes the scanned journal physically clean: shards with torn tails are
/// truncated to their last valid frame, header-less shards are removed.
/// Called by the runner before resuming (readers tolerate torn tails
/// anyway; truncation keeps crash debris from accumulating).
void truncate_torn_tails(const JournalScan& scan);

/// Streaming merge of all shards into global trial order (scenario index,
/// then trial index). Holds O(shards) records in memory. Duplicate
/// (scenario, trial) keys — e.g. from an interrupted resume — yield the
/// copy from the lexicographically first shard. Within one shard, keys
/// must be strictly ascending (the order every writer produces); a
/// violation throws std::runtime_error.
class JournalMerge {
 public:
  explicit JournalMerge(const std::string& dir);
  ~JournalMerge();
  JournalMerge(const JournalMerge&) = delete;
  JournalMerge& operator=(const JournalMerge&) = delete;

  /// False if no shard had a valid header (meta() is then meaningless).
  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] const JournalMeta& meta() const { return meta_; }

  /// Fills `out` with the next record in global trial order; false at end.
  bool next(JournalRecord& out);

 private:
  struct Cursor;
  std::vector<Cursor> cursors_;
  /// Min-heap of (current key, cursor index): next() is O(log shards) per
  /// record. Ties order by cursor index, i.e. lexicographically first
  /// shard wins — the deterministic duplicate-collapse rule.
  std::priority_queue<std::pair<u64, std::size_t>,
                      std::vector<std::pair<u64, std::size_t>>,
                      std::greater<>>
      heap_;
  JournalMeta meta_;
  std::unordered_map<u64, u32> index_of_hash_;
  bool valid_ = false;
  u32 trials_ = 0;
};

/// Rebuilds the CampaignReport from a journal via the same streaming
/// ScenarioAggregateBuilder fold the runner uses, so a report read back
/// from shards is byte-identical to the in-memory one. With
/// `include_trials` the per-trial results are materialised too (O(total
/// trials) memory — this is the post-hoc analysis path, not the runner's).
/// Throws std::runtime_error if `dir` holds no valid journal.
[[nodiscard]] CampaignReport read_report(const std::string& dir,
                                         bool include_trials = true);

}  // namespace dnstime::campaign::store
