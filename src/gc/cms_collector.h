// CMS-like collector: parallel copying young scavenges (ParNew-style, on the
// shared EvacuationTask engine) that promote into a free-list old space, a
// mostly-concurrent old-space mark (initial mark piggybacked on a young
// pause, marking slices driven from the allocation path, an
// incremental-update write barrier feeding a gray queue), a stop-the-world
// remark+sweep pause, and a full mark-compact fallback when promotion fails
// due to fragmentation or the watchdog cancels a scavenge — the paper's CMS
// long-tail source.
#ifndef SRC_GC_CMS_COLLECTOR_H_
#define SRC_GC_CMS_COLLECTOR_H_

#include <atomic>
#include <vector>

#include "src/gc/collector.h"
#include "src/gc/free_list_space.h"
#include "src/gc/mark_bitmap.h"
#include "src/gc/marking.h"

namespace rolp {

class CmsCollector : public Collector {
 public:
  CmsCollector(Heap* heap, const GcConfig& config, SafepointManager* safepoints);

  const char* name() const override { return "cms"; }

  AllocResult AllocateSlow(MutatorContext* ctx, const AllocRequest& req) override;
  Region* RefillTlab(MutatorContext* ctx) override;
  void CollectFull(MutatorContext* ctx) override;

  // Exposed for tests.
  enum class Phase { kIdle, kMarking, kSweepPending };
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }
  FreeListSpace& old_space() { return old_space_; }
  uint64_t full_gcs() const { return full_gcs_.load(std::memory_order_relaxed); }

  // Write-barrier hook (installed via CmsBarrierSet): armed from initial mark
  // until the remark drain ends, including the kSweepPending window.
  void MarkingBarrier(Object* value) { marker_.BarrierPush(value); }

 private:
  friend class CmsBarrierSet;

  bool TryCollect(MutatorContext* ctx, bool force_full);
  void DoYoung(MutatorContext* ctx);
  void DoFull(uint64_t t0);
  void PreparePause();

  // Concurrent cycle pieces.
  void MaybeStartCycleLocked();   // world stopped: initial root scan
  void ConcurrentWork(size_t budget_bytes);  // mutator-driven slices
  void RemarkAndSweep(uint64_t t0);          // world stopped

  double TenuredOccupancy() const;

  size_t eden_target_;
  std::atomic<size_t> eden_in_use_{0};

  FreeListSpace old_space_;
  MarkBitmap bitmap_;

  Marker marker_;  // incremental mode: the concurrent old-space mark
  std::atomic<Phase> phase_{Phase::kIdle};
  std::atomic<uint64_t> full_gcs_{0};
};

// Barrier set for CMS: region-coarse remembered sets plus the marking
// (incremental update) barrier.
class CmsBarrierSet : public BarrierSet {
 public:
  CmsBarrierSet(RegionManager* regions, CmsCollector* cms)
      : remset_(regions), cms_(cms) {}

  void StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) override {
    remset_.StoreBarrier(src, slot, value);
    cms_->MarkingBarrier(value);
  }
  Object* LoadBarrier(std::atomic<Object*>* slot) override {
    return slot->load(std::memory_order_acquire);
  }
  bool needs_load_barrier() const override { return false; }

 private:
  RemsetBarrierSet remset_;
  CmsCollector* cms_;
};

}  // namespace rolp

#endif  // SRC_GC_CMS_COLLECTOR_H_
