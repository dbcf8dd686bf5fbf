// GC watchdog: a monitor thread that enforces per-phase pause deadlines and
// watches per-worker heartbeats, so a stuck worker or a runaway phase
// degrades the collector instead of hanging the VM.
//
// Escalation ladder on detection (DESIGN.md section 8):
//   1. log + crash-context snapshot of the stuck phase (always);
//   2. cancel the phase via its CancellationToken — the collector falls back
//      to a bounded STW mark-compact cycle;
//   3. requeue a dead worker's abandoned items onto survivors
//      (WorkerPool::ReclaimAbandonedItems);
//   4. the collector correlates overruns with survivor tracking and pushes
//      the ROLP profiler into degraded mode (TakeOverrunFlag);
//   5. if even the non-cancellable STW fallback overruns its deadline
//      `max_compact_overruns` times in a row, ROLP_CHECK-abort — the crash
//      handler dumps all registered context plus the fail-point catalog.
//
// Cost: disabled (ROLP_WATCHDOG=0) nothing is created — no thread, no
// atomics, no stores anywhere on GC paths. Enabled, task bodies publish
// liveness with at most one relaxed atomic store per step
// (WorkerPool::Heartbeat) and the monitor polls at a coarse interval.
#ifndef SRC_GC_WATCHDOG_GC_WATCHDOG_H_
#define SRC_GC_WATCHDOG_GC_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gc/gc_metrics.h"
#include "src/gc/watchdog/cancellation.h"
#include "src/gc/worker_pool.h"
#include "src/util/clock.h"
#include "src/util/crash_context.h"

namespace rolp {

enum class GcPhase : uint8_t {
  kIdle,
  kMark,
  kScan,
  kEvacuate,
  kCompact,
  kVerify,
  kProfilerMerge,
  // Concurrent evacuation window (mutators running): copy workers drain the
  // collection set off-pause. Timed against the (longer) concurrent deadline;
  // cancellation self-forwards the rest and the final pause falls back to the
  // STW compaction ladder.
  kConcurrentEvac,
};

const char* GcPhaseName(GcPhase phase);

struct WatchdogConfig {
  bool enabled = true;            // ROLP_WATCHDOG (default on)
  uint64_t phase_deadline_ms = 5000;  // ROLP_GC_DEADLINE_MS
  // Per-worker heartbeat stall threshold; 0 means phase_deadline_ms / 2.
  uint64_t worker_stall_ms = 0;
  // Monitor poll period; 0 derives min(deadline, stall)/4, clamped [1, 100].
  uint64_t poll_interval_ms = 0;
  // Consecutive STW-fallback (kCompact) overruns tolerated before aborting.
  uint32_t max_compact_overruns = 3;

  static WatchdogConfig FromEnv();
  uint64_t EffectiveWorkerStallMs() const;
  uint64_t EffectivePollIntervalMs() const;
  // The deadline the monitor holds `phase` against: phase_deadline_ms, or 4x
  // that for the off-pause GcPhase::kConcurrentEvac window, which shares the
  // CPU with mutators and legitimately runs much longer than any pause phase.
  uint64_t DeadlineMsFor(GcPhase phase) const;
};

struct WatchdogStats {
  uint64_t overruns_detected = 0;
  uint64_t phases_cancelled = 0;
  uint64_t worker_stalls_detected = 0;
  uint64_t items_requeued = 0;
  uint64_t last_overrun_elapsed_ns = 0;
};

class GcWatchdog {
 public:
  GcWatchdog(const WatchdogConfig& config, WorkerPool* pool);
  ~GcWatchdog();

  GcWatchdog(const GcWatchdog&) = delete;
  GcWatchdog& operator=(const GcWatchdog&) = delete;

  // Returns nullptr when ROLP_WATCHDOG=0: the disabled watchdog has no
  // representation at all, so it cannot cost anything.
  static std::unique_ptr<GcWatchdog> CreateFromEnv(WorkerPool* pool);

  // Phase bracketing, called from the GC pause thread. `token` may be null
  // for phases with no cooperative bail-out (the STW fallback).
  void BeginPhase(GcPhase phase, CancellationToken* token);
  void EndPhase();

  // True if any phase overran since the last call; used by the collector to
  // correlate overruns with survivor tracking (ladder rung 4).
  bool TakeOverrunFlag() { return overrun_since_take_.exchange(false, std::memory_order_relaxed); }

  WatchdogStats stats() const;
  const WatchdogConfig& config() const { return config_; }

 private:
  void MonitorLoop();
  // Runs the ladder for the current phase; caller holds mu_.
  void EscalateLocked(uint64_t now_ns);

  const WatchdogConfig config_;
  WorkerPool* const pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Current phase record (guarded by mu_).
  GcPhase phase_ = GcPhase::kIdle;
  uint64_t phase_start_ns_ = 0;
  CancellationToken* token_ = nullptr;
  bool escalated_ = false;
  uint32_t consecutive_compact_overruns_ = 0;
  // Per-item heartbeat tracking: last seen value + when it last advanced.
  struct HeartbeatTrack {
    uint64_t value = 0;
    uint64_t last_change_ns = 0;
    bool stall_reported = false;
  };
  std::vector<HeartbeatTrack> tracks_;
  WatchdogStats stats_;

  std::atomic<bool> overrun_since_take_{false};

  ScopedCrashContextProvider crash_provider_;
  std::thread monitor_;  // last member: joined in dtor before state dies
};

// Null-safe RAII phase bracket: the watchdog half is a no-op when `watchdog`
// is null (disabled). When `metrics` is given, the scope also charges the
// phase's CPU time to its GcMetrics::PhaseCpuNs slot: the bracketing thread's
// own CLOCK_THREAD_CPUTIME_ID delta plus the worker-thread CPU of every
// WorkerPool dispatch made inside the scope (WorkerCpuSink). Independent of
// whether the watchdog exists, so per-phase CPU attribution works with
// ROLP_WATCHDOG=0 too.
class WatchdogPhaseScope {
 public:
  WatchdogPhaseScope(GcWatchdog* watchdog, GcPhase phase, CancellationToken* token,
                     GcMetrics* metrics = nullptr)
      : watchdog_(watchdog), metrics_(metrics), phase_(phase) {
    if (watchdog_ != nullptr) {
      watchdog_->BeginPhase(phase, token);
    }
    if (metrics_ != nullptr) {
      cpu_start_ns_ = ThreadCpuNs();
    }
  }
  ~WatchdogPhaseScope() {
    if (metrics_ != nullptr) {
      metrics_->AddPhaseCpuNs(static_cast<size_t>(phase_),
                              ThreadCpuNs() - cpu_start_ns_ + workers_cpu_.ns());
    }
    if (watchdog_ != nullptr) {
      watchdog_->EndPhase();
    }
  }

  WatchdogPhaseScope(const WatchdogPhaseScope&) = delete;
  WatchdogPhaseScope& operator=(const WatchdogPhaseScope&) = delete;

 private:
  GcWatchdog* watchdog_;
  GcMetrics* metrics_;
  GcPhase phase_;
  uint64_t cpu_start_ns_ = 0;
  WorkerCpuSink workers_cpu_;
};

}  // namespace rolp

#endif  // SRC_GC_WATCHDOG_GC_WATCHDOG_H_
