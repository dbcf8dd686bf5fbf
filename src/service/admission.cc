#include "src/service/admission.h"

#include <algorithm>

#include "src/util/random.h"

namespace rolp {

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      ewma_service_ns_(static_cast<uint64_t>(config.init_service_us * 1000.0)) {}

bool AdmissionController::Admit(size_t queue_depth, uint64_t now_ns, uint64_t deadline_ns) {
  uint64_t ewma = ewma_service_ns_.load(std::memory_order_relaxed);
  uint64_t earliest_start = now_ns + static_cast<uint64_t>(queue_depth) * ewma;
  if (earliest_start > deadline_ns) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionController::ObserveService(uint64_t service_ns) {
  // EWMA with alpha = 1/8; a lossy race between readers-modify-writers only
  // drops one sample, which the next observation repairs.
  uint64_t cur = ewma_service_ns_.load(std::memory_order_relaxed);
  uint64_t next = cur - cur / 8 + service_ns / 8;
  if (next == 0) {
    next = 1;
  }
  ewma_service_ns_.store(next, std::memory_order_relaxed);
}

uint64_t RetryPolicy::BackoffNs(uint32_t attempt, uint64_t* rng_state) const {
  if (attempt == 0) {
    attempt = 1;
  }
  uint32_t shift = std::min(attempt - 1, 20u);
  uint64_t backoff_ms = std::min(base_backoff_ms << shift, max_backoff_ms);
  uint64_t backoff_ns = backoff_ms * 1000 * 1000;
  double j = std::clamp(jitter, 0.0, 1.0);
  // Full jitter over the jittered fraction: fixed part + U[0,1) * rest.
  double u = static_cast<double>(SplitMix64(rng_state) >> 11) * 0x1.0p-53;
  return static_cast<uint64_t>(static_cast<double>(backoff_ns) * (1.0 - j) +
                               static_cast<double>(backoff_ns) * j * u);
}

void RetryBudget::OnRequest() {
  std::lock_guard<SpinLock> guard(mu_);
  tokens_ = std::min(tokens_ + ratio_, burst_);
}

bool RetryBudget::TryAcquire() {
  std::lock_guard<SpinLock> guard(mu_);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    granted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  denied_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace rolp
