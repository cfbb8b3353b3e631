// ProgressMerger, the reader behind tools/campaign_watch: it folds the
// runner's --progress stream into one table however the stream is chunked,
// counts (never folds) lines it cannot read, and reproduces the campaign's
// own totals from a real runner stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/progress_merge.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "common/stats.h"

namespace dnstime::campaign {
namespace {

namespace fs = std::filesystem;

std::string progress_line(const char* scenario, u64 done, u64 trials,
                          u64 successes) {
  std::string line = "{\"scenario\":\"";
  line += scenario;
  line += "\",\"done\":";
  line += std::to_string(done);
  line += ",\"trials\":";
  line += std::to_string(trials);
  line += ",\"successes\":";
  line += std::to_string(successes);
  line += "}\n";
  return line;
}

TEST(ProgressMergerTest, InterleavedPartialLinesNeverTear) {
  // The stream fed in fragments that split lines mid-key, mid-value and
  // mid-quote, with alternating fragment sizes — the tail-follow worst
  // case. The result must equal feeding the stream in one piece.
  const std::string stream = progress_line("sweep/x", 1, 4, 1) +
                             progress_line("sweep/y", 1, 4, 0) +
                             progress_line("sweep/x", 2, 4, 1) +
                             progress_line("sweep/y", 2, 4, 1) +
                             progress_line("sweep/x", 3, 4, 2);

  ProgressMerger whole;
  whole.feed(stream.data(), stream.size());

  ProgressMerger shredded;
  std::size_t pos = 0;
  for (std::size_t i = 0; pos < stream.size(); ++i) {
    // Prime-sized chunks guarantee splits inside keys, values and quotes.
    const std::size_t n =
        std::min<std::size_t>(i % 2 == 0 ? 7 : 11, stream.size() - pos);
    shredded.feed(stream.data() + pos, n);
    pos += n;
  }

  const auto a = whole.snapshot();
  const auto b = shredded.snapshot();
  ASSERT_EQ(b.rows.size(), 2u);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].name, b.rows[i].name);
    EXPECT_EQ(a.rows[i].done, b.rows[i].done) << a.rows[i].name;
    EXPECT_EQ(a.rows[i].successes, b.rows[i].successes) << a.rows[i].name;
  }
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(b.lines, 5u);
  EXPECT_EQ(b.bad_lines, 0u);
  // Counts are cumulative: the newest line per scenario wins.
  EXPECT_EQ(b.rows[0].name, "sweep/x");
  EXPECT_EQ(b.rows[0].done, 3u);
  EXPECT_EQ(b.rows[0].successes, 2u);
  EXPECT_EQ(b.rows[1].name, "sweep/y");
  EXPECT_EQ(b.rows[1].done, 2u);
  EXPECT_EQ(b.rows[1].successes, 1u);
  const WilsonInterval ci = wilson_interval(2, 3);
  EXPECT_DOUBLE_EQ(b.rows[0].rate, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.rows[0].wilson_low, ci.low);
  EXPECT_DOUBLE_EQ(b.rows[0].wilson_high, ci.high);
}

TEST(ProgressMergerTest, MalformedLinesAreCountedNotFolded) {
  ProgressMerger m;
  const std::string junk =
      "not json at all\n{\"half\":1}\n"
      "{\"campaign_done\":5,\"campaign_total\":8}\n";
  m.feed(junk.data(), junk.size());
  const auto snap = m.snapshot();
  EXPECT_TRUE(snap.rows.empty());
  EXPECT_EQ(snap.lines, 3u);
  EXPECT_EQ(snap.bad_lines, 3u);
  EXPECT_EQ(snap.campaign_total, 0u);  // nothing folded from a bad line
}

TEST(ProgressMergerTest, RunnerStreamFoldsToTheReportsCounts) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "dnstime_progress_merge";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "progress.jsonl").string();

  std::vector<ScenarioSpec> scenarios;
  for (const char* name : {"synthetic/a", "synthetic/b"}) {
    ScenarioSpec spec;
    spec.name = name;
    spec.attack = AttackKind::kCustom;
    spec.trial_fn = [](const ScenarioSpec&, const TrialContext& ctx) {
      Rng rng{ctx.seed};
      TrialResult r;
      r.success = rng.chance(0.6);
      return r;
    };
    scenarios.push_back(std::move(spec));
  }
  CampaignConfig config;
  config.seed = 3;
  config.trials = 12;
  config.threads = 4;
  config.progress_path = path;
  const CampaignReport report = CampaignRunner(config).run(scenarios);

  std::ifstream in(path, std::ios::binary);
  const std::string stream((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  ProgressMerger m;
  m.feed(stream.data(), stream.size());
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.bad_lines, 0u);
  EXPECT_EQ(snap.lines, 24u);
  EXPECT_EQ(snap.campaign_done, 24u);
  EXPECT_EQ(snap.campaign_total, 24u);
  ASSERT_EQ(snap.rows.size(), 2u);
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    const ScenarioAggregate* agg = nullptr;
    for (const ScenarioAggregate& s : report.scenarios) {
      if (s.name == row.name) agg = &s;
    }
    ASSERT_NE(agg, nullptr) << row.name;
    EXPECT_EQ(row.done, 12u);
    EXPECT_EQ(row.trials, 12u);
    EXPECT_EQ(row.successes, agg->successes) << row.name;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dnstime::campaign
