// Pause-time and GC-work accounting. Every stop-the-world window is recorded
// here; the benchmark harnesses read pauses back to build the paper's
// percentile (Fig. 8), interval (Fig. 9), and warmup (Fig. 10) plots.
#ifndef SRC_GC_GC_METRICS_H_
#define SRC_GC_GC_METRICS_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/spinlock.h"

namespace rolp {

enum class PauseKind : uint8_t {
  kYoung,
  kMixed,
  kFull,
  kCmsRemark,
  kCmsSweep,
  kZMark,
  kZRemark,
  kZRelocateStart,
  // Regional concurrent evacuation (ROLP_CONCURRENT_EVAC): the short final
  // handshake that drains leftover heals, retires/frees the collection set,
  // and disarms the load barrier.
  kRemap,
};

const char* PauseKindName(PauseKind kind);

struct PauseRecord {
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  PauseKind kind = PauseKind::kYoung;
  uint64_t bytes_copied = 0;
};

class GcMetrics {
 public:
  // Retained per-pause records are capped: a long-running service would
  // otherwise accumulate one PauseRecord per pause forever. The default keeps
  // every pause a bench-scale run produces; set_pause_log_cap overrides it.
  // pause_hist_ stays the authoritative all-time aggregate regardless of the
  // cap.
  static constexpr size_t kDefaultPauseLogCap = 1u << 16;

  void RecordPause(const PauseRecord& record);

  // Snapshot of the retained pause window, oldest first. Once more than
  // pause_log_cap() pauses have been recorded this is the most recent
  // pause_log_cap() of them, not the full history — all-time aggregates come
  // from PauseCount/TotalPauseNs/MaxPauseNs/PausePercentileNs.
  std::vector<PauseRecord> Pauses() const;

  size_t pause_log_cap() const { return pause_log_cap_; }
  // Tests only: shrinking the cap drops the oldest retained records.
  void set_pause_log_cap(size_t cap);

  // All-time counts (not limited to the retained window).
  uint64_t PauseCount() const;
  uint64_t TotalPauseNs() const;
  uint64_t MaxPauseNs() const;
  // Value such that p% of pauses are <= it (log-bucketed approximation).
  uint64_t PausePercentileNs(double p) const;
  // Copy of the all-time pause histogram (metrics-registry snapshot source).
  LogHistogram PauseHistogramSnapshot() const;
  // Mean duration of the most recent n pauses (within the retained window).
  double RecentMeanPauseNs(size_t n) const;

  // Completed GC cycles: the profiler's unit of time (paper section 3).
  uint64_t GcCycles() const { return gc_cycles_.load(std::memory_order_relaxed); }
  void IncrementGcCycles() { gc_cycles_.fetch_add(1, std::memory_order_relaxed); }

  // Work counters.
  void AddBytesCopied(uint64_t n) { bytes_copied_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t BytesCopied() const { return bytes_copied_.load(std::memory_order_relaxed); }
  void AddBytesPromoted(uint64_t n) { bytes_promoted_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t BytesPromoted() const { return bytes_promoted_.load(std::memory_order_relaxed); }
  void AddConcurrentWorkNs(uint64_t n) {
    concurrent_work_ns_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t ConcurrentWorkNs() const { return concurrent_work_ns_.load(std::memory_order_relaxed); }

  // Pause breakdown (young/mixed pauses): region/remset scanning, evacuation,
  // and the profiler hook (merge + any in-pause inference). Cumulative ns;
  // bench_pause divides by pause count.
  void AddPauseScanNs(uint64_t n) { pause_scan_ns_.fetch_add(n, std::memory_order_relaxed); }
  void AddPauseEvacNs(uint64_t n) { pause_evac_ns_.fetch_add(n, std::memory_order_relaxed); }
  void AddPauseProfilerNs(uint64_t n) {
    pause_profiler_ns_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddPauseVerifyNs(uint64_t n) {
    pause_verify_ns_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t PauseScanNs() const { return pause_scan_ns_.load(std::memory_order_relaxed); }
  uint64_t PauseEvacNs() const { return pause_evac_ns_.load(std::memory_order_relaxed); }
  uint64_t PauseProfilerNs() const {
    return pause_profiler_ns_.load(std::memory_order_relaxed);
  }
  uint64_t PauseVerifyNs() const { return pause_verify_ns_.load(std::memory_order_relaxed); }
  // Concurrent-evacuation breakdown: wall time of the final remap/retire
  // pause, plus CPU time (CLOCK_THREAD_CPUTIME_ID deltas summed over the
  // copy workers / pause thread). CPU counters make the cost attributable
  // even on 1-CPU bench boxes where wall-clock parallel scaling is invisible.
  void AddPauseRemapNs(uint64_t n) { pause_remap_ns_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t PauseRemapNs() const { return pause_remap_ns_.load(std::memory_order_relaxed); }
  void AddEvacCpuNs(uint64_t n) { evac_cpu_ns_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t EvacCpuNs() const { return evac_cpu_ns_.load(std::memory_order_relaxed); }
  void AddRemapCpuNs(uint64_t n) { remap_cpu_ns_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t RemapCpuNs() const { return remap_cpu_ns_.load(std::memory_order_relaxed); }

  // Per-phase thread-CPU-time totals, indexed by GcPhase (gc_watchdog.h).
  // WatchdogPhaseScope feeds these with CLOCK_THREAD_CPUTIME_ID deltas from
  // whichever thread brackets the phase plus the worker bodies it dispatches
  // (WorkerCpuSink), for every collector — the
  // generalization of evac_cpu/remap_cpu above (which stay, as the
  // worker-summed evacuation counters the pause bench gates on). Sized with
  // slack so gc_watchdog.h need not be included here.
  static constexpr size_t kNumGcPhaseSlots = 16;
  void AddPhaseCpuNs(size_t phase, uint64_t n) {
    if (phase < kNumGcPhaseSlots) {
      phase_cpu_ns_[phase].fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t PhaseCpuNs(size_t phase) const {
    return phase < kNumGcPhaseSlots ? phase_cpu_ns_[phase].load(std::memory_order_relaxed) : 0;
  }

  // Per-worker evacuation copy volume: the work-balance signal. With static
  // striding one worker can absorb a dense remset region (max share -> ~1.0);
  // with stealing the shares even out regardless of input skew.
  static constexpr uint32_t kMaxTrackedWorkers = 32;
  void AddWorkerCopiedBytes(uint32_t worker, uint64_t n) {
    if (worker < kMaxTrackedWorkers) {
      worker_copied_bytes_[worker].fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t WorkerCopiedBytes(uint32_t worker) const {
    return worker < kMaxTrackedWorkers
               ? worker_copied_bytes_[worker].load(std::memory_order_relaxed)
               : 0;
  }
  // Largest single-worker fraction of all copied bytes (1/num_workers = even).
  double MaxWorkerCopiedShare() const;

  void Reset();

 private:
  // Index into pauses_ of the oldest retained record once the ring is full
  // (pauses_.size() == pause_log_cap_); 0 while still filling.
  mutable SpinLock lock_;
  size_t pause_log_cap_ = kDefaultPauseLogCap;
  size_t ring_head_ = 0;
  std::vector<PauseRecord> pauses_;
  uint64_t pauses_total_ = 0;
  uint64_t total_pause_ns_ = 0;
  LogHistogram pause_hist_;
  std::atomic<uint64_t> gc_cycles_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  std::atomic<uint64_t> bytes_promoted_{0};
  std::atomic<uint64_t> concurrent_work_ns_{0};
  std::atomic<uint64_t> pause_scan_ns_{0};
  std::atomic<uint64_t> pause_evac_ns_{0};
  std::atomic<uint64_t> pause_profiler_ns_{0};
  std::atomic<uint64_t> pause_verify_ns_{0};
  std::atomic<uint64_t> pause_remap_ns_{0};
  std::atomic<uint64_t> evac_cpu_ns_{0};
  std::atomic<uint64_t> remap_cpu_ns_{0};
  std::atomic<uint64_t> worker_copied_bytes_[kMaxTrackedWorkers] = {};
  std::atomic<uint64_t> phase_cpu_ns_[kNumGcPhaseSlots] = {};
};

}  // namespace rolp

#endif  // SRC_GC_GC_METRICS_H_
