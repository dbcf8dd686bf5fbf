#include "src/util/pacer.h"

#include <chrono>
#include <thread>

#include "src/util/clock.h"
#include "src/util/spinlock.h"

namespace rolp {

namespace {

// NowNs() is steady_clock::time_since_epoch in nanoseconds, so an absolute
// ns deadline converts straight back to a steady_clock time_point.
inline std::chrono::steady_clock::time_point ToTimePoint(uint64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

}  // namespace

uint64_t Pacer::WaitUntil(uint64_t deadline_ns, bool precise) {
  uint64_t now = NowNs();
  if (now >= deadline_ns) {
    return now;
  }

  // Absolute sleep to (deadline - slack): oversleep cannot compound because
  // the target never moves, and the slack margin keeps the kernel's
  // wake-late bias in front of the deadline instead of past it.
  if (deadline_ns - now > options_.spin_slack_ns) {
    std::this_thread::sleep_until(ToTimePoint(deadline_ns - options_.spin_slack_ns));
    now = NowNs();
  }
  if (!precise) {
    // Coarse wake: good enough to re-check state; do not burn the spin.
    if (now < deadline_ns) {
      std::this_thread::sleep_until(ToTimePoint(deadline_ns));
      now = NowNs();
    }
    return now;
  }
  // Bounded spin: at most spin_slack plus whatever the sleep overshot by,
  // i.e. tens of microseconds. CpuRelax keeps the hyperthread sibling
  // usable; no yield — the whole point is staying on-core for the finish.
  while (now < deadline_ns) {
    CpuRelax();
    now = NowNs();
  }
  return now;
}

}  // namespace rolp
