// Regional generational collector.
//
// With dynamic generations disabled this is the G1 baseline: TLAB young
// allocation, stop-the-world young evacuation with aging/tenuring, mixed
// collections (mark + evacuate the emptiest tenured regions) once tenured
// occupancy crosses a threshold, and a sliding mark-compact full-GC fallback.
//
// With dynamic generations enabled this is NG2C (paper section 7.1): the old
// space is subdivided into 14 dynamic generations plus the old generation
// proper, and allocation requests may target any of them directly
// (pretenuring). Requests carry the target generation chosen either by
// workload annotations (NG2C mode) or by the ROLP profiler (ROLP mode).
#ifndef SRC_GC_REGIONAL_COLLECTOR_H_
#define SRC_GC_REGIONAL_COLLECTOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gc/collector.h"
#include "src/gc/mark_bitmap.h"
#include "src/util/spinlock.h"

namespace rolp {

class RegionalCollector : public Collector {
 public:
  RegionalCollector(Heap* heap, const GcConfig& config, SafepointManager* safepoints);
  ~RegionalCollector() override;

  const char* name() const override { return config_.use_dynamic_gens ? "ng2c" : "g1"; }

  AllocResult AllocateSlow(MutatorContext* ctx, const AllocRequest& req) override;
  Region* RefillTlab(MutatorContext* ctx) override;
  void CollectFull(MutatorContext* ctx) override;

  // Exposed for tests.
  size_t eden_target_regions() const { return eden_target_; }
  size_t eden_regions_in_use() const { return eden_in_use_.load(std::memory_order_relaxed); }

  // Runs one stop-the-world collection right now (benches/tests): young or
  // mixed by the usual occupancy trigger, or the full fallback when
  // force_full. Returns false if another thread's collection ran instead.
  bool CollectNow(MutatorContext* ctx, bool force_full = false) {
    return TryCollect(ctx, force_full);
  }

  // --- Concurrent evacuation (config.concurrent_evac; DESIGN.md section 14)
  // True while a concurrent evacuation window is armed: collection-set
  // regions are flagged evacuating and every mutator reference load must pass
  // the healing barrier. Toggled only inside pauses.
  bool evac_armed() const { return evac_armed_.load(std::memory_order_acquire); }

  // Load-barrier slow path: returns the to-space address of `v` if its region
  // is being evacuated (copying it on first touch), else `v`. Also heals the
  // slot and maintains the remembered set. Called by RegionalBarrierSet from
  // any mutator thread while evac_armed().
  Object* HealSlot(std::atomic<Object*>* slot, Object* v);

  // True from the arming pause until the final remap pause retires the cycle.
  bool concurrent_cycle_active() const {
    return concurrent_active_.load(std::memory_order_acquire);
  }

  // Blocks (as a safe region) until the in-flight concurrent cycle retires.
  // No-op when none is active. Tests and benches use this to make pause
  // metrics deterministic; allocation paths use it instead of stacking a
  // second collection on top of a running cycle.
  void WaitForConcurrentCycle(MutatorContext* ctx);

  // NG2C whole-region fast path: tenured (old/gen) cset regions with zero
  // marked live bytes, freed in the arming pause with zero copying.
  uint64_t whole_regions_reclaimed() const {
    return whole_regions_reclaimed_.load(std::memory_order_relaxed);
  }
  // Copy-on-first-touch heals performed by mutators (vs. GC workers).
  uint64_t mutator_healed_objects() const {
    return mutator_healed_objects_.load(std::memory_order_relaxed);
  }
  uint64_t mutator_healed_bytes() const {
    return mutator_healed_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct ConcurrentCycle;
  // Stops the world and collects. Returns false if another thread's collection
  // ran instead (caller should retry its allocation).
  bool TryCollect(MutatorContext* ctx, bool force_full);

  // The following run with the world stopped.
  void DoYoungOrMixed(MutatorContext* ctx);
  void DoFull(uint64_t t0);
  void PreparePause();

  // Concurrent-evacuation cycle stages. Start runs at the tail of the arming
  // pause: flags the cset evacuating, heals all roots (to-space invariant:
  // after this no root can hand a mutator a from-space cset pointer), arms
  // the barrier, records the initial pause, and spawns the driver thread.
  void StartConcurrentEvacuation(std::vector<Region*> cset,
                                 std::vector<Region*> remset_sources,
                                 std::vector<Region*> scrub_list,
                                 std::vector<std::atomic<Object*>*> roots, bool mixed,
                                 bool trust_marks, bool survivor_tracking, uint64_t t0,
                                 uint64_t mark_ns, uint64_t evac_t0);
  // Driver thread body: runs the copy workers off-pause under the watchdog's
  // kConcurrentEvac deadline, then stops the world for the final remap pause.
  void ConcurrentDriver();
  // Final remap pause (world stopped, driver thread): drains leftover
  // injected work, re-heals roots, retires/frees the cset, verifies, disarms
  // the barrier, and publishes cycle metrics.
  void FinishConcurrentCycle();

  AllocResult AllocatePretenured(MutatorContext* ctx, const AllocRequest& req);
  AllocResult AllocateHumongousObject(MutatorContext* ctx, const AllocRequest& req);

  // Fraction of heap regions holding tenured data (old + gens + humongous).
  double TenuredOccupancy() const;

  // Ladder rung 4: if the watchdog flagged an overrun since the last pause,
  // tell the profiler so it can degrade survivor tracking.
  void ReportOverrunToProfiler();

  bool dynamic_gens_;
  size_t eden_target_;
  std::atomic<size_t> eden_in_use_{0};

  SpinLock gen_lock_;
  std::array<Region*, 16> gen_current_ = {};  // slot g: current region of gen g (15 = old)

  MarkBitmap bitmap_;

  // --- Concurrent evacuation state ---
  std::atomic<bool> evac_armed_{false};
  std::atomic<bool> concurrent_active_{false};
  std::unique_ptr<ConcurrentCycle> cycle_;  // valid while concurrent_active_
  std::thread concurrent_thread_;           // joined lazily + in the dtor
  std::mutex cycle_mu_;
  std::condition_variable cycle_cv_;
  std::atomic<uint64_t> whole_regions_reclaimed_{0};
  std::atomic<uint64_t> mutator_healed_objects_{0};
  std::atomic<uint64_t> mutator_healed_bytes_{0};
};

// Barrier set installed when concurrent evacuation is configured. Stores keep
// the classic remembered-set barrier, and while a cycle is armed also record
// stores of (self-forwarded) objects that stay in an evacuating region; loads
// additionally heal references into evacuating regions while a cycle is
// armed. Disarmed, needs_load_barrier() is false and Heap::LoadRef never even
// calls LoadBarrier — the knob costs nothing outside an armed window.
class RegionalBarrierSet : public RemsetBarrierSet {
 public:
  RegionalBarrierSet(RegionManager* regions, RegionalCollector* collector)
      : RemsetBarrierSet(regions), collector_(collector) {}

  void StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) override {
    RemsetBarrierSet::StoreBarrier(src, slot, value);
    if (value == nullptr || src == nullptr || !collector_->evac_armed()) {
      return;
    }
    // A mutator only holds an evacuating region's object once it was
    // self-forwarded; that region retires to old at the final pause, so the
    // young-to-young exemption does not hold for the edge.
    Region* vr = regions_->RegionFor(value);
    Region* sr = regions_->RegionFor(src);
    if (vr->evacuating() && sr != vr) {
      vr->RemsetAddRegion(sr->index());
    }
  }

  Object* LoadBarrier(std::atomic<Object*>* slot) override {
    Object* v = slot->load(std::memory_order_acquire);
    if (v == nullptr || !collector_->evac_armed()) {
      return v;
    }
    return collector_->HealSlot(slot, v);
  }

  bool needs_load_barrier() const override { return collector_->evac_armed(); }

 private:
  RegionalCollector* collector_;
};

}  // namespace rolp

#endif  // SRC_GC_REGIONAL_COLLECTOR_H_
