// Event-loop hot-path microbenchmark: sim::EventLoop on the three workload
// shapes the simulator actually produces:
//
//   timer_churn     self-rescheduling periodic timers (NTP poll loops,
//                   reassembly-cache sweeps);
//   packet_burst    one-shot events each carrying a packet payload
//                   (Network::send -> deliver), the single hottest pattern
//                   in a fragment-spray campaign;
//   cancel_heavy    schedule + cancel churn (DNS query timeouts that are
//                   cancelled by the response in the common case).
//
// Results go to stdout and to a JSON file (default BENCH_eventloop.json)
// that CI uploads and gates for instrumentation overhead (hot_path.h).
// Absolute per-layer timings of real campaigns live in perfbench/.
#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "hot_path.h"
#include "sim/event_loop.h"

namespace dnstime::bench {
namespace {

using sim::Duration;
using sim::EventLoop;

/// N timers, each rescheduling itself until the shared fire budget is
/// spent. Exercises schedule->pop->reschedule steady state: heap churn at
/// mixed timestamps with zero cancellations. Shaped like the NTP clients:
/// an object whose tick schedules `[this] { tick(); }`.
struct Timer {
  EventLoop& loop;
  u64& fired;
  u64 total_fires;
  Duration period;
  void tick() {
    if (++fired >= total_fires) return;
    loop.schedule_after(period, [this] { tick(); });
  }
};

void timer_churn(u64 total_fires) {
  EventLoop loop;
  constexpr int kTimers = 64;
  u64 fired = 0;
  std::vector<Timer> timers;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    // Each timer has its own period so timestamps interleave.
    timers.push_back(
        Timer{loop, fired, total_fires, Duration::millis(10 + i)});
    loop.schedule_after(timers.back().period,
                        [t = &timers.back()] { t->tick(); });
  }
  loop.run_all();
}

/// One-shot events each carrying a packet-sized payload to a delivery
/// callback — the Network::send shape. The payload is moved into the
/// event.
void packet_burst(u64 total_packets, std::size_t payload_size) {
  EventLoop loop;
  u64 delivered = 0;
  constexpr u64 kBatch = 4096;  // bounded queue depth, like a live sim
  for (u64 sent = 0; sent < total_packets;) {
    u64 n = std::min(kBatch, total_packets - sent);
    for (u64 i = 0; i < n; ++i) {
      Bytes payload(payload_size, static_cast<u8>(i));
      loop.schedule_after(Duration::micros(static_cast<i64>(i % 97)),
                          [p = std::move(payload), &delivered] {
                            delivered += p.empty() ? 0 : 1;
                          });
    }
    sent += n;
    loop.run_all();
  }
}

/// Schedule a timeout per "query", cancel most of them (the response
/// arrived), fire the rest — the DNS resolver timeout shape.
void cancel_heavy(u64 total_events) {
  EventLoop loop;
  u64 fired = 0;
  constexpr u64 kBatch = 2048;
  for (u64 done = 0; done < total_events;) {
    u64 n = std::min(kBatch, total_events - done);
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (u64 i = 0; i < n; ++i) {
      handles.push_back(loop.schedule_after(Duration::millis(5),
                                            [&fired] { fired++; }));
    }
    for (u64 i = 0; i < n; ++i) {
      if (i % 8 != 0) handles[i].cancel();  // 7 of 8 queries get answers
    }
    loop.run_all();
    done += n;
  }
}

}  // namespace
}  // namespace dnstime::bench

int main(int argc, char** argv) {
  using namespace dnstime::bench;

  // The event loop has no provenance sites; running under the recorder
  // anyway measures the honest cost of carrying it (the per-site
  // thread_local check is the only overhead a non-packet path pays).
  HotPathBench bench("eventloop", "events", 2'000'000);
  if (!bench.parse(argc, argv)) return 2;
  const dnstime::u64 scale = bench.scale();
  bench.run("timer_churn", [&] {
    timer_churn(scale);
    return scale;
  });
  bench.run("packet_burst", [&] {
    packet_burst(scale, 90);
    return scale;
  });
  bench.run("cancel_heavy", [&] {
    cancel_heavy(scale);
    return scale;
  });
  return bench.finish();
}
