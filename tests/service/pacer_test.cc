// Open-loop pacing regression (DESIGN.md §16).
//
// The pacer must hold the offered rate within 1% at 100k events/s and keep
// per-event issuance lateness far below the kernel timer slack (~50 µs),
// which is what the relative sleep_for pacing it replaced could not do: that
// pacer's median lateness was on the order of the slack, 5x the
// inter-arrival gap.
//
// Only half of that is the pacer's own contract: it never wakes early,
// offers every scheduled event, and does not drift. Those hold on any box and
// are always asserted. The rate and lateness bounds also need the scheduler
// to leave the thread alone, so they are checked only on runs that saw no
// involuntary context switch, and skipped (printing the count) otherwise.
#include "src/util/pacer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/clock.h"

namespace rolp {
namespace {

struct PacingRun {
  uint64_t offered = 0;
  uint64_t early = 0;  // wakes before their deadline
  double achieved_eps = 0.0;
  uint64_t lateness_p50_ns = 0;
  uint64_t lateness_p99_ns = 0;
  uint64_t tail_min_lateness_ns = 0;  // least lateness in the last quarter
  long involuntary_switches = 0;
};

long InvoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nivcsw;
}

// Replays the open-loop generator loop shape: a fixed schedule of `events`
// deadlines `gap_ns` apart, waiting for each with the pacer under test, and
// charges lateness as (wake - deadline) per event.
PacingRun DriveSchedule(uint64_t events, uint64_t gap_ns) {
  Pacer pacer;
  PacingRun run;
  std::vector<uint64_t> lateness;
  lateness.reserve(events);
  long switches_before = InvoluntarySwitches();
  const uint64_t start = NowNs() + 1000 * 1000;  // 1 ms lead-in
  uint64_t last_wake = 0;
  for (uint64_t i = 0; i < events; i++) {
    uint64_t deadline = start + i * gap_ns;
    uint64_t now = pacer.WaitUntil(deadline);
    run.offered++;
    run.early += now < deadline ? 1 : 0;
    lateness.push_back(now > deadline ? now - deadline : 0);
    last_wake = now;
  }
  run.involuntary_switches = InvoluntarySwitches() - switches_before;
  if (events > 1 && last_wake > start) {
    run.achieved_eps =
        static_cast<double>(events - 1) / (static_cast<double>(last_wake - start) / 1e9);
  }
  run.tail_min_lateness_ns = *std::min_element(lateness.end() - events / 4, lateness.end());
  std::sort(lateness.begin(), lateness.end());
  run.lateness_p50_ns = lateness[lateness.size() / 2];
  run.lateness_p99_ns = lateness[lateness.size() * 99 / 100];
  return run;
}

constexpr uint64_t kEvents = 30000;
constexpr uint64_t kGapNs = 10000;  // 100k events/s: gap < Linux timer slack

// The load-independent contract. An absolute schedule catches up after any
// preemption (overdue deadlines return at once), so some event in the last
// quarter is on time again; a pacer that re-anchors on its own wake falls
// further behind with every event.
void ExpectNoDrift(const PacingRun& run) {
  EXPECT_EQ(run.offered, kEvents);
  EXPECT_EQ(run.early, 0u);
  EXPECT_LT(run.tail_min_lateness_ns, kGapNs) << "lateness grows along the schedule";
}

TEST(PacerTest, AbsoluteModeHoldsRateWithinOnePercentAt100kEps) {
  PacingRun run = DriveSchedule(kEvents, kGapNs);
  ExpectNoDrift(run);
  if (run.involuntary_switches != 0) {
    GTEST_SKIP() << "rate bound not checked: the thread was preempted "
                 << run.involuntary_switches << " times";
  }
  const double target_eps = 1e9 / static_cast<double>(kGapNs);
  EXPECT_NEAR(run.achieved_eps, target_eps, target_eps * 0.01)
      << "offered rate drifted more than 1% from the schedule";
}

TEST(PacerTest, AbsoluteModeLatenessIsNotTimerSlackDominated) {
  PacingRun run = DriveSchedule(kEvents, kGapNs);
  ExpectNoDrift(run);
  if (run.involuntary_switches != 0) {
    GTEST_SKIP() << "lateness bound not checked: the thread was preempted "
                 << run.involuntary_switches << " times";
  }
  // The hybrid finish spins through the slack window: typical lateness is a
  // clock read (~tens of ns). 20 µs leaves room for scheduler noise while
  // still sitting well under the 50 µs timer slack that defined the bug.
  EXPECT_LT(run.lateness_p50_ns, 20 * 1000u)
      << "median issuance lateness looks timer-slack-dominated";
}

TEST(PacerTest, PastDeadlinesReturnImmediately) {
  Pacer pacer;
  uint64_t now = NowNs();
  uint64_t wake = pacer.WaitUntil(now > 1000000 ? now - 1000000 : 0);
  EXPECT_GE(wake, now);
  EXPECT_LT(wake - now, 1000 * 1000u);  // no sleep on an overdue deadline
}

}  // namespace
}  // namespace rolp
