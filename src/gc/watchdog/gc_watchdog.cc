#include "src/gc/watchdog/gc_watchdog.h"

#include <algorithm>
#include <chrono>

#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/env.h"
#include "src/util/log.h"
#include "src/util/trace.h"

namespace rolp {

const char* GcPhaseName(GcPhase phase) {
  switch (phase) {
    case GcPhase::kIdle:
      return "idle";
    case GcPhase::kMark:
      return "mark";
    case GcPhase::kScan:
      return "scan";
    case GcPhase::kEvacuate:
      return "evacuate";
    case GcPhase::kCompact:
      return "compact";
    case GcPhase::kVerify:
      return "verify";
    case GcPhase::kProfilerMerge:
      return "profiler-merge";
    case GcPhase::kConcurrentEvac:
      return "concurrent-evac";
  }
  return "?";
}

WatchdogConfig WatchdogConfig::FromEnv() {
  WatchdogConfig config;
  config.enabled = EnvBool("ROLP_WATCHDOG", true);
  int64_t deadline = EnvInt64("ROLP_GC_DEADLINE_MS", 5000);
  config.phase_deadline_ms = deadline > 0 ? static_cast<uint64_t>(deadline) : 5000;
  return config;
}

uint64_t WatchdogConfig::DeadlineMsFor(GcPhase phase) const {
  return phase == GcPhase::kConcurrentEvac ? 4 * phase_deadline_ms : phase_deadline_ms;
}

uint64_t WatchdogConfig::EffectiveWorkerStallMs() const {
  if (worker_stall_ms != 0) {
    return worker_stall_ms;
  }
  return std::max<uint64_t>(1, phase_deadline_ms / 2);
}

uint64_t WatchdogConfig::EffectivePollIntervalMs() const {
  if (poll_interval_ms != 0) {
    return poll_interval_ms;
  }
  uint64_t derived = std::min(phase_deadline_ms, EffectiveWorkerStallMs()) / 4;
  return std::clamp<uint64_t>(derived, 1, 100);
}

std::unique_ptr<GcWatchdog> GcWatchdog::CreateFromEnv(WorkerPool* pool) {
  WatchdogConfig config = WatchdogConfig::FromEnv();
  if (!config.enabled) {
    return nullptr;
  }
  return std::make_unique<GcWatchdog>(config, pool);
}

GcWatchdog::GcWatchdog(const WatchdogConfig& config, WorkerPool* pool)
    : config_(config),
      pool_(pool),
      crash_provider_("gc-watchdog",
                      [this](std::FILE* out) {
                        // Crash-time: read fields without mu_ (the failing
                        // thread may be the monitor itself, holding it).
                        std::fprintf(out,
                                     "  phase=%s elapsed_ms=%.1f deadline_ms=%llu\n"
                                     "  overruns=%llu cancelled=%llu worker_stalls=%llu "
                                     "requeued=%llu compact_overruns_in_a_row=%u\n",
                                     GcPhaseName(phase_),
                                     phase_ == GcPhase::kIdle
                                         ? 0.0
                                         : NsToMs(NowNs() - phase_start_ns_),
                                     (unsigned long long)config_.DeadlineMsFor(phase_),
                                     (unsigned long long)stats_.overruns_detected,
                                     (unsigned long long)stats_.phases_cancelled,
                                     (unsigned long long)stats_.worker_stalls_detected,
                                     (unsigned long long)stats_.items_requeued,
                                     consecutive_compact_overruns_);
                      }) {
  ROLP_CHECK(pool_ != nullptr);
  tracks_.resize(pool_->size());
  pool_->EnableHeartbeats(true);
  monitor_ = std::thread([this] { MonitorLoop(); });
}

GcWatchdog::~GcWatchdog() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  monitor_.join();
}

void GcWatchdog::BeginPhase(GcPhase phase, CancellationToken* token) {
  uint64_t now = NowNs();
  // Fires on every watched phase, so even healthy runs carry watchdog
  // coverage markers in the trace (arg = GcPhase ordinal).
  ROLP_TRACE_INSTANT("watchdog", "watchdog.phase.begin", static_cast<uint64_t>(phase));
  std::lock_guard<std::mutex> guard(mu_);
  phase_ = phase;
  phase_start_ns_ = now;
  token_ = token;
  escalated_ = false;
  for (uint32_t i = 0; i < tracks_.size(); i++) {
    tracks_[i].value = pool_->HeartbeatValue(i);
    tracks_[i].last_change_ns = now;
    tracks_[i].stall_reported = false;
  }
}

void GcWatchdog::EndPhase() {
  std::lock_guard<std::mutex> guard(mu_);
  if (phase_ == GcPhase::kCompact && !escalated_) {
    consecutive_compact_overruns_ = 0;
  }
  phase_ = GcPhase::kIdle;
  token_ = nullptr;
  escalated_ = false;
}

WatchdogStats GcWatchdog::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

void GcWatchdog::EscalateLocked(uint64_t now_ns) {
  escalated_ = true;
  uint64_t elapsed = now_ns - phase_start_ns_;
  stats_.overruns_detected++;
  stats_.last_overrun_elapsed_ns = elapsed;
  overrun_since_take_.store(true, std::memory_order_relaxed);
  ROLP_TRACE_INSTANT("watchdog", "watchdog.overrun", static_cast<uint64_t>(phase_));

  // Rung 1: log with enough state to diagnose post-mortem (the same data is
  // exported via the "gc-watchdog" crash-context section if we later abort).
  ROLP_LOG_ERROR("GcWatchdog: GC phase '%s' overran deadline (%.1f ms > %llu ms)",
                 GcPhaseName(phase_), NsToMs(elapsed),
                 (unsigned long long)config_.DeadlineMsFor(phase_));
  for (const WorkerActivity& a : pool_->SnapshotWorkerActivity()) {
    ROLP_LOG_ERROR("GcWatchdog:   worker alive=%d item=%lld heartbeat=%llu", a.alive ? 1 : 0,
                   (long long)a.current_item, (unsigned long long)a.heartbeat);
  }

  // Rung 2: cancel the phase cooperatively; the collector falls back to a
  // bounded STW mark-compact cycle.
  if (token_ != nullptr) {
    token_->Cancel();
    stats_.phases_cancelled++;
    ROLP_TRACE_INSTANT("watchdog", "watchdog.phase.cancelled",
                       static_cast<uint64_t>(phase_));
  }

  // Rung 3: hand a dead worker's abandoned items to survivors so the phase
  // (or its bail-out path) can still finish.
  stats_.items_requeued += pool_->ReclaimAbandonedItems();

  // Rung 5: the STW fallback has no cancellation token; if even it keeps
  // blowing its deadline, the heap is not collectable in bounded time —
  // abort with full context rather than hang a latency-sensitive service.
  if (phase_ == GcPhase::kCompact) {
    consecutive_compact_overruns_++;
    if (consecutive_compact_overruns_ >= config_.max_compact_overruns) {
      ROLP_CHECK_MSG(false,
                     "GcWatchdog: STW fallback overran its deadline repeatedly; "
                     "GC cannot complete in bounded time");
    }
  }
}

void GcWatchdog::MonitorLoop() {
  const auto poll = std::chrono::milliseconds(config_.EffectivePollIntervalMs());
  const uint64_t stall_ns = MsToNs(static_cast<double>(config_.EffectiveWorkerStallMs()));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, poll, [&] { return stop_; });
    if (stop_) {
      return;
    }
    if (phase_ == GcPhase::kIdle) {
      continue;
    }
    uint64_t now = NowNs();

    // Per-worker checks: heartbeat stalls (early warning before the phase
    // deadline) and dead workers (requeue immediately, rung 3).
    bool any_dead_with_item = false;
    std::vector<WorkerActivity> activity = pool_->SnapshotWorkerActivity();
    for (const WorkerActivity& a : activity) {
      if (!a.alive) {
        any_dead_with_item = any_dead_with_item || a.current_item >= 0;
        continue;
      }
      if (a.current_item < 0) {
        continue;  // idle worker, nothing to watch
      }
      HeartbeatTrack& track = tracks_[a.current_item];
      if (a.heartbeat != track.value) {
        track.value = a.heartbeat;
        track.last_change_ns = now;
        track.stall_reported = false;
      } else if (!track.stall_reported && now - track.last_change_ns > stall_ns) {
        track.stall_reported = true;
        stats_.worker_stalls_detected++;
        ROLP_LOG_WARN(
            "GcWatchdog: worker on item %lld has not heartbeat for %.1f ms "
            "(phase '%s')",
            (long long)a.current_item, NsToMs(now - track.last_change_ns),
            GcPhaseName(phase_));
      }
    }
    if (any_dead_with_item) {
      uint32_t requeued = pool_->ReclaimAbandonedItems();
      if (requeued > 0) {
        stats_.items_requeued += requeued;
        ROLP_LOG_WARN("GcWatchdog: requeued %u item(s) abandoned by dead worker(s)",
                      requeued);
      }
    }

    if (!escalated_ &&
        now - phase_start_ns_ > MsToNs(static_cast<double>(config_.DeadlineMsFor(phase_)))) {
      EscalateLocked(now);
    }
  }
}

}  // namespace rolp
