#include "src/heap/heap_governor.h"

#include "src/util/env.h"
#include "src/util/trace.h"

namespace rolp {

const char* PressureLevelName(PressureLevel level) {
  switch (level) {
    case PressureLevel::kNormal:
      return "normal";
    case PressureLevel::kGcUrgent:
      return "gc-urgent";
    case PressureLevel::kThrottle:
      return "throttle";
    case PressureLevel::kDegrade:
      return "degrade";
    case PressureLevel::kShed:
      return "shed";
  }
  return "?";
}

GovernorConfig GovernorConfig::FromEnv() {
  GovernorConfig c;
  c.gc_watermark = EnvDouble("ROLP_GOV_GC_WATERMARK", c.gc_watermark);
  c.throttle_watermark = EnvDouble("ROLP_GOV_THROTTLE_WATERMARK", c.throttle_watermark);
  c.throttle_stall_us =
      static_cast<uint64_t>(EnvInt64("ROLP_GOV_THROTTLE_US", c.throttle_stall_us));
  return c;
}

HeapGovernor::HeapGovernor(const GovernorConfig& config, std::function<double()> occupancy_fn)
    : config_(config),
      occupancy_fn_(std::move(occupancy_fn)),
      base_stall_ns_(config.throttle_stall_us * 1000) {}

double HeapGovernor::WatermarkFor(PressureLevel level) const {
  switch (level) {
    case PressureLevel::kNormal:
      return 0.0;
    case PressureLevel::kGcUrgent:
      return config_.gc_watermark;
    case PressureLevel::kThrottle:
      return config_.throttle_watermark;
    case PressureLevel::kDegrade:
      return config_.degrade_watermark;
    case PressureLevel::kShed:
      return config_.shed_watermark;
  }
  return 1.0;
}

PressureLevel HeapGovernor::Update() {
  double occ = occupancy_fn_();
  last_occupancy_.store(occ, std::memory_order_relaxed);
  uint8_t cur = level_.load(std::memory_order_relaxed);
  // Escalate to the highest watermark occupancy has crossed; de-escalate one
  // rung at a time, and only once occupancy clears the hysteresis band below
  // the rung's own watermark.
  uint8_t target = cur;
  for (uint8_t l = static_cast<uint8_t>(PressureLevel::kShed); l > 0; l--) {
    if (occ >= WatermarkFor(static_cast<PressureLevel>(l))) {
      target = l > cur ? l : cur;
      break;
    }
  }
  if (target == cur && cur > 0 &&
      occ < WatermarkFor(static_cast<PressureLevel>(cur)) - config_.hysteresis) {
    target = cur - 1;
  }
  if (target != cur) {
    level_.store(target, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    uint8_t max = max_level_.load(std::memory_order_relaxed);
    while (target > max &&
           !max_level_.compare_exchange_weak(max, target, std::memory_order_relaxed)) {
    }
    ROLP_TRACE_INSTANT("service", "governor.level", target);
  }
  return static_cast<PressureLevel>(level_.load(std::memory_order_relaxed));
}

bool HeapGovernor::TakeGcRequest(uint64_t now_ns) {
  if (level_.load(std::memory_order_relaxed) <
      static_cast<uint8_t>(PressureLevel::kGcUrgent)) {
    return false;
  }
  uint64_t interval_ns = config_.min_gc_interval_ms * 1000000ull;
  uint64_t last = last_gc_request_ns_.load(std::memory_order_relaxed);
  if (now_ns - last < interval_ns) {
    return false;
  }
  if (!last_gc_request_ns_.compare_exchange_strong(last, now_ns,
                                                   std::memory_order_relaxed)) {
    return false;  // another thread took this slot
  }
  gc_requests_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace rolp
