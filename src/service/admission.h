// Admission control and retry policy for the open-loop service harness.
//
// Admission is deadline-aware: a request whose deadline is already unmeetable
// given the current queue depth and the observed per-request service time is
// rejected at enqueue, before it wastes queue space and worker time. Fast
// rejection bounds the lateness of the requests that *are* admitted — the
// alternative (accept everything) turns every overload into a tail-latency
// collapse for all traffic.
//
// Retries are budgeted per request class with a token bucket (at most
// `ratio` retries per admitted request, bounded burst) and backed off with
// jittered exponential delays, so retry traffic can never amplify an
// overload into a storm.
#ifndef SRC_SERVICE_ADMISSION_H_
#define SRC_SERVICE_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/util/spinlock.h"

namespace rolp {

struct AdmissionConfig {
  size_t queue_capacity = 512;
  uint64_t deadline_ms = 200;     // per attempt
  double init_service_us = 200.0; // EWMA seed before any observation
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  // Enqueue-time decision: with `queue_depth` requests already waiting and
  // the EWMA service time, the newcomer starts executing no earlier than
  // now + depth * ewma; reject when even that start time is past the
  // deadline. Counts the decision.
  bool Admit(size_t queue_depth, uint64_t now_ns, uint64_t deadline_ns);

  // Feeds one completed execution time into the EWMA (alpha = 1/8).
  void ObserveService(uint64_t service_ns);

  uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  uint64_t ewma_service_ns() const {
    return ewma_service_ns_.load(std::memory_order_relaxed);
  }

 private:
  AdmissionConfig config_;
  std::atomic<uint64_t> ewma_service_ns_;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
};

struct RetryPolicy {
  uint32_t max_attempts = 3;      // 1 = no retries
  uint64_t base_backoff_ms = 10;
  uint64_t max_backoff_ms = 200;
  double jitter = 0.5;            // fraction of the backoff that is random

  // Backoff before attempt (attempt+1), given `attempt` completed tries
  // (1-based): base * 2^(attempt-1), capped, with full-jitter on `jitter` of
  // it. Deterministic per *rng_state (SplitMix64 stream).
  uint64_t BackoffNs(uint32_t attempt, uint64_t* rng_state) const;
};

// Token-bucket retry budget: OnRequest deposits `ratio` tokens (capped at
// `burst`), TryAcquire withdraws one per granted retry. One instance per
// request class keeps one class's failure storm from consuming another's
// budget.
class RetryBudget {
 public:
  RetryBudget(double ratio, double burst) : ratio_(ratio), burst_(burst) {}

  void OnRequest();
  bool TryAcquire();

  uint64_t granted() const { return granted_.load(std::memory_order_relaxed); }
  uint64_t denied() const { return denied_.load(std::memory_order_relaxed); }

 private:
  SpinLock mu_;
  double tokens_ = 0.0;
  double ratio_;
  double burst_;
  std::atomic<uint64_t> granted_{0};
  std::atomic<uint64_t> denied_{0};
};

}  // namespace rolp

#endif  // SRC_SERVICE_ADMISSION_H_
