#include "campaign/progress_merge.h"

#include <cstdlib>
#include <cstring>

#include "common/stats.h"

namespace dnstime::campaign {
namespace {

/// Finds `"key":` in a JSON line and parses the number after it. The
/// runner emits flat objects with unescaped keys, so a plain substring
/// probe is exact here.
bool find_number(const std::string& line, const char* key, double& out) {
  std::string probe = "\"";
  probe += key;
  probe += "\":";
  const std::size_t pos = line.find(probe);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + probe.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  out = v;
  return true;
}

bool find_u64(const std::string& line, const char* key, u64& out) {
  double v = 0.0;
  if (!find_number(line, key, v) || v < 0.0) return false;
  out = static_cast<u64>(v);
  return true;
}

/// Extracts the scenario name. The runner escapes names via
/// obs::append_escaped, so stop at the first unescaped quote.
bool find_scenario(const std::string& line, std::string& out) {
  static const char probe[] = "\"scenario\":\"";
  const std::size_t pos = line.find(probe);
  if (pos == std::string::npos) return false;
  out.clear();
  for (std::size_t i = pos + sizeof(probe) - 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    out += c;
  }
  return false;  // unterminated string
}

}  // namespace

void ProgressMerger::feed(const char* data, std::size_t len) {
  carry_.append(data, len);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = carry_.find('\n', start);
    if (nl == std::string::npos) break;
    fold_line(carry_.substr(start, nl - start));
    start = nl + 1;
  }
  carry_.erase(0, start);
}

void ProgressMerger::fold_line(const std::string& line) {
  if (line.empty()) return;
  state_.lines++;
  std::string name;
  u64 done = 0;
  if (!find_scenario(line, name) || !find_u64(line, "done", done)) {
    state_.bad_lines++;
    return;
  }
  auto [it, inserted] = index_.try_emplace(name, state_.rows.size());
  if (inserted) state_.rows.push_back(MergedRow{.name = name});
  // Counters are cumulative, so later lines supersede earlier ones.
  MergedRow& row = state_.rows[it->second];
  row.done = done;
  find_u64(line, "trials", row.trials);
  find_u64(line, "successes", row.successes);
  find_u64(line, "campaign_done", state_.campaign_done);
  find_u64(line, "campaign_total", state_.campaign_total);
  find_number(line, "elapsed_s", state_.elapsed_s);
  find_number(line, "eta_s", state_.eta_s);
}

ProgressMerger::Snapshot ProgressMerger::snapshot() const {
  Snapshot snap = state_;
  for (MergedRow& row : snap.rows) {
    if (row.done == 0) continue;
    row.rate =
        static_cast<double>(row.successes) / static_cast<double>(row.done);
    const WilsonInterval ci = wilson_interval(static_cast<u32>(row.successes),
                                              static_cast<u32>(row.done));
    row.wilson_low = ci.low;
    row.wilson_high = ci.high;
  }
  return snap;
}

}  // namespace dnstime::campaign
