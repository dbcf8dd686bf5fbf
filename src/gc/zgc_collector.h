// Z-like fully concurrent collector. Single-generation, region-based.
//
// Cycle: tiny STW mark-start pause (root scan) -> concurrent mark (slices
// driven from the allocation path, incremental-update store barrier) -> tiny
// STW remark -> relocation-set selection -> concurrent relocation (the LOAD
// BARRIER heals every reference read: objects in relocating regions are
// copied on first touch) -> concurrent remap (all live slots healed) -> the
// relocated regions are only then freed.
//
// This reproduces the paper's ZGC trade-off (section 2.2, section 8.5):
// pauses shrink to root scans, but every reference load pays a barrier
// (throughput) and relocated regions are held until remap completes (memory
// headroom).
#ifndef SRC_GC_ZGC_COLLECTOR_H_
#define SRC_GC_ZGC_COLLECTOR_H_

#include <atomic>
#include <vector>

#include "src/gc/collector.h"
#include "src/gc/mark_bitmap.h"
#include "src/gc/marking.h"

namespace rolp {

class ZgcCollector : public Collector {
 public:
  ZgcCollector(Heap* heap, const GcConfig& config, SafepointManager* safepoints);

  const char* name() const override { return "zgc"; }

  AllocResult AllocateSlow(MutatorContext* ctx, const AllocRequest& req) override;
  Region* RefillTlab(MutatorContext* ctx) override;
  void CollectFull(MutatorContext* ctx) override;

  enum class Phase : int { kIdle, kMarking, kRelocating, kRemapping };
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }

  // --- Barrier entry points -------------------------------------------------
  // Load barrier: heals references into relocating regions.
  Object* LoadBarrier(std::atomic<Object*>* slot);
  // Store barrier: grays newly stored values from mark start until the
  // remark drain ends.
  void MarkingBarrier(Object* value) { marker_.BarrierPush(value); }

  uint64_t relocated_bytes() const { return relocated_bytes_.load(std::memory_order_relaxed); }
  uint64_t cycles_completed() const { return cycles_completed_.load(std::memory_order_relaxed); }
  // Slots healed by the mutator load barrier (reference found pointing into a
  // relocating region during a read) vs. objects proactively copied by the
  // GC's relocation slices. Their ratio shows how much relocation work the
  // barrier absorbs versus the allocation-paced background sweep.
  uint64_t barrier_healed_slots() const {
    return barrier_healed_slots_.load(std::memory_order_relaxed);
  }
  uint64_t gc_relocated_objects() const {
    return gc_relocated_objects_.load(std::memory_order_relaxed);
  }

 private:
  bool StartCycle(MutatorContext* ctx);        // STW mark-start
  void ConcurrentWork(MutatorContext* ctx, size_t budget_bytes);
  bool RemarkAndSelect(MutatorContext* ctx);   // STW remark + relocation set
  void RelocateSlice(size_t budget_bytes);
  void RemapSlice(size_t budget_bytes);
  void FinishCycle(MutatorContext* ctx);       // free relocated regions
  void DoFull(MutatorContext* ctx);            // allocation-stall fallback

  // Copies an object out of a relocating region; safe to race with other
  // healers (CAS forwarding). When this call performed the winning copy,
  // *copied_here is set (callers use it to attribute the copy).
  Object* Relocate(Object* obj, bool* copied_here = nullptr);
  char* AllocToSpace(size_t bytes);

  double Occupancy() const;

  MarkBitmap bitmap_;
  Marker marker_;  // incremental mode: the concurrent mark
  std::atomic<Phase> phase_{Phase::kIdle};

  SpinLock work_lock_;                 // serializes remap slices

  SpinLock to_space_lock_;
  Region* to_space_region_ = nullptr;

  std::vector<Region*> relocation_set_;
  // Relocation is sharded by whole region: each thread claims the next
  // unclaimed region with a fetch_add and relocates it end to end, so any
  // number of mutators push relocation forward in parallel without taking
  // work_lock_. The done counter advances the phase exactly once when the
  // last claimed region retires (the set itself only mutates under STW).
  std::atomic<size_t> relocate_claim_{0};
  std::atomic<size_t> relocate_done_{0};
  // Concurrent remap only walks regions that existed (with frozen tops) at
  // the relocate-start pause; regions created after it (fresh TLABs,
  // to-space) are remapped inside the final STW pause, where their tops are
  // stable. This avoids racing walks against in-flight bump allocations.
  std::vector<uint32_t> remap_snapshot_;
  size_t remap_cursor_ = 0;            // index into remap_snapshot_

  std::atomic<uint64_t> relocated_bytes_{0};
  std::atomic<uint64_t> cycles_completed_{0};
  std::atomic<uint64_t> barrier_healed_slots_{0};
  std::atomic<uint64_t> gc_relocated_objects_{0};
};

class ZBarrierSet : public BarrierSet {
 public:
  explicit ZBarrierSet(ZgcCollector* z) : z_(z) {}

  void StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) override {
    z_->MarkingBarrier(value);
  }
  Object* LoadBarrier(std::atomic<Object*>* slot) override { return z_->LoadBarrier(slot); }
  bool needs_load_barrier() const override { return true; }

 private:
  ZgcCollector* z_;
};

}  // namespace rolp

#endif  // SRC_GC_ZGC_COLLECTOR_H_
