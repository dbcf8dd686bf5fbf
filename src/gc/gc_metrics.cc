#include "src/gc/gc_metrics.h"

namespace rolp {

const char* PauseKindName(PauseKind kind) {
  switch (kind) {
    case PauseKind::kYoung:
      return "young";
    case PauseKind::kMixed:
      return "mixed";
    case PauseKind::kFull:
      return "full";
    case PauseKind::kCmsRemark:
      return "cms-remark";
    case PauseKind::kCmsSweep:
      return "cms-sweep";
    case PauseKind::kZMark:
      return "z-mark";
    case PauseKind::kZRemark:
      return "z-remark";
    case PauseKind::kZRelocateStart:
      return "z-relocate-start";
    case PauseKind::kRemap:
      return "remap";
  }
  return "?";
}

void GcMetrics::set_pause_log_cap(size_t cap) {
  std::lock_guard<SpinLock> guard(lock_);
  pause_log_cap_ = cap < 1 ? 1 : cap;
  if (pauses_.size() > pause_log_cap_) {
    // Shrink: keep the newest pause_log_cap_ records, oldest first.
    std::vector<PauseRecord> kept;
    kept.reserve(pause_log_cap_);
    for (size_t i = pauses_.size() - pause_log_cap_; i < pauses_.size(); i++) {
      kept.push_back(pauses_[(ring_head_ + i) % pauses_.size()]);
    }
    pauses_ = std::move(kept);
    ring_head_ = 0;
  }
}

void GcMetrics::RecordPause(const PauseRecord& record) {
  std::lock_guard<SpinLock> guard(lock_);
  if (pauses_.size() < pause_log_cap_) {
    pauses_.push_back(record);
  } else {
    pauses_[ring_head_] = record;
    ring_head_ = (ring_head_ + 1) % pause_log_cap_;
  }
  pauses_total_++;
  total_pause_ns_ += record.duration_ns;
  pause_hist_.Record(record.duration_ns);
}

std::vector<PauseRecord> GcMetrics::Pauses() const {
  std::lock_guard<SpinLock> guard(lock_);
  std::vector<PauseRecord> out;
  out.reserve(pauses_.size());
  for (size_t i = 0; i < pauses_.size(); i++) {
    out.push_back(pauses_[(ring_head_ + i) % pauses_.size()]);
  }
  return out;
}

uint64_t GcMetrics::PauseCount() const {
  std::lock_guard<SpinLock> guard(lock_);
  return pauses_total_;
}

uint64_t GcMetrics::TotalPauseNs() const {
  std::lock_guard<SpinLock> guard(lock_);
  return total_pause_ns_;
}

uint64_t GcMetrics::MaxPauseNs() const {
  std::lock_guard<SpinLock> guard(lock_);
  return pause_hist_.Max();
}

uint64_t GcMetrics::PausePercentileNs(double p) const {
  std::lock_guard<SpinLock> guard(lock_);
  return pause_hist_.Percentile(p);
}

LogHistogram GcMetrics::PauseHistogramSnapshot() const {
  std::lock_guard<SpinLock> guard(lock_);
  return pause_hist_;
}

double GcMetrics::RecentMeanPauseNs(size_t n) const {
  std::lock_guard<SpinLock> guard(lock_);
  if (pauses_.empty() || n == 0) {
    return 0.0;
  }
  size_t count = n < pauses_.size() ? n : pauses_.size();
  uint64_t sum = 0;
  for (size_t i = pauses_.size() - count; i < pauses_.size(); i++) {
    sum += pauses_[(ring_head_ + i) % pauses_.size()].duration_ns;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

double GcMetrics::MaxWorkerCopiedShare() const {
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint32_t w = 0; w < kMaxTrackedWorkers; w++) {
    uint64_t v = worker_copied_bytes_[w].load(std::memory_order_relaxed);
    total += v;
    if (v > max) {
      max = v;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(max) / static_cast<double>(total);
}

void GcMetrics::Reset() {
  std::lock_guard<SpinLock> guard(lock_);
  pauses_.clear();
  ring_head_ = 0;
  pauses_total_ = 0;
  total_pause_ns_ = 0;
  pause_hist_.Reset();
  gc_cycles_.store(0, std::memory_order_relaxed);
  bytes_copied_.store(0, std::memory_order_relaxed);
  bytes_promoted_.store(0, std::memory_order_relaxed);
  concurrent_work_ns_.store(0, std::memory_order_relaxed);
  pause_scan_ns_.store(0, std::memory_order_relaxed);
  pause_evac_ns_.store(0, std::memory_order_relaxed);
  pause_profiler_ns_.store(0, std::memory_order_relaxed);
  pause_verify_ns_.store(0, std::memory_order_relaxed);
  pause_remap_ns_.store(0, std::memory_order_relaxed);
  evac_cpu_ns_.store(0, std::memory_order_relaxed);
  remap_cpu_ns_.store(0, std::memory_order_relaxed);
  for (uint32_t w = 0; w < kMaxTrackedWorkers; w++) {
    worker_copied_bytes_[w].store(0, std::memory_order_relaxed);
  }
  for (size_t p = 0; p < kNumGcPhaseSlots; p++) {
    phase_cpu_ns_[p].store(0, std::memory_order_relaxed);
  }
}

}  // namespace rolp
