// Heap-pressure governor: occupancy watermarks drive a graduated backpressure
// ladder so sustained over-capacity load degrades service quality instead of
// aborting the VM (DESIGN.md section 13).
//
//   kNormal   -> business as usual
//   kGcUrgent -> collectors should start a (concurrent/early) cycle now,
//                before allocation actually fails
//   kThrottle -> mutator allocations take a bounded stall on the slow path,
//                buying the collector headroom
//   kDegrade  -> the profiler suspends itself (survivor tracking and decision
//                publication are pure overhead when the heap is drowning)
//   kShed     -> the service front end rejects new work at admission
//
// Levels escalate as occupancy crosses each watermark and de-escalate with
// hysteresis (occupancy must fall `hysteresis` below a watermark before the
// ladder steps back down), so the governor does not flap across a boundary.
// All reads on hot paths are single relaxed loads; Update() is only called
// from allocation slow paths and pause ends.
#ifndef SRC_HEAP_HEAP_GOVERNOR_H_
#define SRC_HEAP_HEAP_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace rolp {

enum class PressureLevel : uint8_t {
  kNormal = 0,
  kGcUrgent = 1,
  kThrottle = 2,
  kDegrade = 3,
  kShed = 4,
};

const char* PressureLevelName(PressureLevel level);

struct GovernorConfig {
  double gc_watermark = 0.70;        // ROLP_GOV_GC_WATERMARK
  double throttle_watermark = 0.85;  // ROLP_GOV_THROTTLE_WATERMARK
  double degrade_watermark = 0.92;
  double shed_watermark = 0.96;
  // Occupancy must drop this far below a watermark before de-escalating.
  double hysteresis = 0.05;
  // Minimum spacing between governor-initiated early-GC requests.
  uint64_t min_gc_interval_ms = 50;
  // Base mutator stall at kThrottle; doubles at kDegrade, quadruples at
  // kShed. Bounded by construction: the stall is a fixed sleep, not a wait
  // for a condition, so a mutator always makes progress.
  uint64_t throttle_stall_us = 200;  // ROLP_GOV_THROTTLE_US
  // The defaults, with the GC and throttle watermarks and the throttle stall
  // overridable from ROLP_GOV_GC_WATERMARK, ROLP_GOV_THROTTLE_WATERMARK and
  // ROLP_GOV_THROTTLE_US.
  static GovernorConfig FromEnv();
};

class HeapGovernor {
 public:
  // `occupancy_fn` returns current heap occupancy in [0,1]. Injectable so
  // ladder transitions are unit-testable without building a heap.
  HeapGovernor(const GovernorConfig& config, std::function<double()> occupancy_fn);

  // Recomputes occupancy and moves the ladder (with hysteresis). Called from
  // allocation slow paths and pause ends; safe from any thread (a lost race
  // just means the next Update() lands the same level).
  PressureLevel Update();

  PressureLevel level() const {
    return static_cast<PressureLevel>(level_.load(std::memory_order_relaxed));
  }
  double last_occupancy() const { return last_occupancy_.load(std::memory_order_relaxed); }

  // True once per min_gc_interval while the ladder is at kGcUrgent or above:
  // the caller should trigger a collection now instead of waiting for
  // allocation failure. now_ns is the caller's clock (injectable for tests).
  bool TakeGcRequest(uint64_t now_ns);

  // Stall (ns) a mutator allocation slow path should take right now; 0 below
  // kThrottle. One relaxed load.
  uint64_t ThrottleStallNs() const {
    uint8_t l = level_.load(std::memory_order_relaxed);
    if (l < static_cast<uint8_t>(PressureLevel::kThrottle)) {
      return 0;
    }
    return base_stall_ns_ << (l - static_cast<uint8_t>(PressureLevel::kThrottle));
  }
  void CountThrottleStall() { throttle_stalls_.fetch_add(1, std::memory_order_relaxed); }

  const GovernorConfig& config() const { return config_; }

  // Counters (metrics registry gauges read these).
  uint64_t transitions() const { return transitions_.load(std::memory_order_relaxed); }
  uint64_t gc_requests() const { return gc_requests_.load(std::memory_order_relaxed); }
  uint64_t throttle_stalls() const { return throttle_stalls_.load(std::memory_order_relaxed); }
  // Highest level the ladder ever reached (soak assertions).
  PressureLevel max_level() const {
    return static_cast<PressureLevel>(max_level_.load(std::memory_order_relaxed));
  }

 private:
  double WatermarkFor(PressureLevel level) const;

  GovernorConfig config_;
  std::function<double()> occupancy_fn_;
  uint64_t base_stall_ns_;
  std::atomic<uint8_t> level_{0};
  std::atomic<uint8_t> max_level_{0};
  std::atomic<double> last_occupancy_{0.0};
  std::atomic<uint64_t> last_gc_request_ns_{0};
  std::atomic<uint64_t> transitions_{0};
  std::atomic<uint64_t> gc_requests_{0};
  std::atomic<uint64_t> throttle_stalls_{0};
};

}  // namespace rolp

#endif  // SRC_HEAP_HEAP_GOVERNOR_H_
