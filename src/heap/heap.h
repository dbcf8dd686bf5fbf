// Heap facade: owns the region manager, class registry, global roots, and the
// barrier set through which all mutator reference loads/stores go. Collector
// policy (when to GC, where survivors go) lives in src/gc.
#ifndef SRC_HEAP_HEAP_H_
#define SRC_HEAP_HEAP_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/heap/class_registry.h"
#include "src/heap/heap_governor.h"
#include "src/heap/object.h"
#include "src/heap/region_manager.h"
#include "src/heap/roots.h"

namespace rolp {

struct HeapConfig {
  size_t heap_bytes = 256 * 1024 * 1024;
  size_t region_bytes = 1 * 1024 * 1024;
  // Young generation target as a fraction of total regions.
  double young_fraction = 0.25;
  // HotSpot-style tenuring threshold: survivors older than this are promoted.
  uint32_t tenuring_threshold = 15;
  // Regions reserved for GC evacuation destinations; mutator allocation fails
  // (recoverable, GC-and-retry) before the free pool dips below this, so
  // copying never starves under mutator pressure. 0 disables. The VM sizes
  // this from ROLP_GOV_EVAC_RESERVE.
  size_t evac_reserve_regions = 0;
  // Arena-layer policy (sharded free lists, THP, NUMA, uncommit). The VM
  // fills this from the environment (HeapArenaOptions::FromEnv); the default
  // keeps the historical single-arena behavior.
  HeapArenaOptions arenas;
};

// Reference access barriers. The default implementation records cross-region
// stores into remembered sets (G1/NG2C/CMS style). The Z collector substitutes
// a barrier that also heals loads through forwarding tables.
class BarrierSet {
 public:
  virtual ~BarrierSet() = default;

  // Called after *slot = value, with src the object containing the slot
  // (nullptr for global root stores).
  virtual void StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) = 0;

  // Returns the (possibly healed) value of *slot.
  virtual Object* LoadBarrier(std::atomic<Object*>* slot) = 0;

  virtual bool needs_load_barrier() const = 0;
};

class Heap {
 public:
  explicit Heap(const HeapConfig& config);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  const HeapConfig& config() const { return config_; }
  RegionManager& regions() { return *regions_; }
  const RegionManager& regions() const { return *regions_; }
  ClassRegistry& classes() { return *classes_; }
  GlobalRoots& roots() { return roots_; }
  // Heap-pressure governor (DESIGN.md section 13); always present.
  HeapGovernor& governor() { return *governor_; }
  const HeapGovernor& governor() const { return *governor_; }

  BarrierSet& barriers() { return *barriers_; }
  // Takes ownership. Installed by the collector before mutators start.
  void SetBarrierSet(std::unique_ptr<BarrierSet> barriers);

  // --- Object construction -------------------------------------------------
  // Total allocation size (header + payload) for a class / array request.
  size_t InstanceAllocSize(ClassId cls) const;
  size_t RefArrayAllocSize(uint64_t length) const;
  size_t DataArrayAllocSize(uint64_t length) const;

  bool IsHumongousSize(size_t total_bytes) const {
    return total_bytes >= regions_->region_bytes() / 2;
  }

  // Lays an object out over `mem` (must be total_bytes of region memory):
  // zeroes the payload, writes the header with a fresh identity hash and the
  // given allocation context.
  Object* InitializeObject(char* mem, ClassId cls, size_t total_bytes, uint64_t array_length,
                           uint32_t context);

  // --- Reference access (all mutator field traffic goes through these) -----
  // Stores are release and loads acquire so that publishing a freshly
  // allocated object (payload zeroing + header write in InitializeObject)
  // happens-before any access by a thread that reaches it through the slot.
  // Both orders are plain moves on x86, so this safe-publication guarantee is
  // free on the hot path.
  Object* LoadRef(std::atomic<Object*>* slot) {
    if (load_barrier_enabled_.load(std::memory_order_relaxed)) {
      return barriers_->LoadBarrier(slot);
    }
    return slot->load(std::memory_order_acquire);
  }

  void StoreRef(Object* src, std::atomic<Object*>* slot, Object* value) {
    slot->store(value, std::memory_order_release);
    barriers_->StoreBarrier(src, slot, value);
  }

  // Re-reads the barrier set's needs_load_barrier(); called by collectors
  // after phase changes.
  void RefreshBarrierMode();

  // False for objects with no reference slot to visit: free blocks, data
  // arrays and instances without reference fields. Collectors skip queueing
  // such objects for a referent scan.
  bool HasRefSlots(const Object* obj) const {
    if (obj->class_id == kFreeBlockClassId) {
      return false;
    }
    const ClassInfo& info = classes_->Get(obj->class_id);
    return info.kind == ClassKind::kRefArray ||
           (info.kind == ClassKind::kInstance && !info.ref_offsets.empty());
  }

  // Iterates the reference slots of an object according to its class.
  template <typename Fn>
  void ForEachRefSlot(Object* obj, Fn&& fn) {
    if (obj->class_id == kFreeBlockClassId) {
      return;  // CMS free-list gap, not a real object
    }
    const ClassInfo& info = classes_->Get(obj->class_id);
    switch (info.kind) {
      case ClassKind::kInstance:
        for (uint32_t off : info.ref_offsets) {
          fn(obj->RefSlotAt(off));
        }
        break;
      case ClassKind::kRefArray: {
        uint64_t n = obj->ArrayLength();
        for (uint64_t i = 0; i < n; i++) {
          fn(obj->RefArraySlot(i));
        }
        break;
      }
      case ClassKind::kDataArray:
        break;
    }
  }

  // --- Statistics -----------------------------------------------------------
  // Cumulative bytes credited via AddAllocatedBytes. Mutator threads batch
  // their credits and drain them at safepoints and on detach, so this is
  // exact whenever the world is stopped (and after all threads detached) but
  // may lag live allocation by up to one batch per running thread.
  uint64_t total_allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }
  void AddAllocatedBytes(uint64_t n) { allocated_bytes_.fetch_add(n, std::memory_order_relaxed); }

  // High-water mark of used bytes, refreshed by collectors at pause ends.
  uint64_t max_used_bytes() const { return max_used_bytes_.load(std::memory_order_relaxed); }
  void UpdateMaxUsedBytes();

 private:
  HeapConfig config_;
  std::unique_ptr<RegionManager> regions_;
  std::unique_ptr<HeapGovernor> governor_;
  std::unique_ptr<ClassRegistry> classes_;
  GlobalRoots roots_;
  std::unique_ptr<BarrierSet> barriers_;
  std::atomic<bool> load_barrier_enabled_{false};
  std::atomic<uint64_t> allocated_bytes_{0};
  std::atomic<uint64_t> max_used_bytes_{0};
};

// Default barrier set: region-coarse remembered-set recording for
// cross-region stores where the target may later be collected independently
// of the source.
class RemsetBarrierSet : public BarrierSet {
 public:
  explicit RemsetBarrierSet(RegionManager* regions) : regions_(regions) {}

  void StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) override;
  Object* LoadBarrier(std::atomic<Object*>* slot) override {
    return slot->load(std::memory_order_acquire);
  }
  bool needs_load_barrier() const override { return false; }

 private:
  RegionManager* regions_;
};

}  // namespace rolp

#endif  // SRC_HEAP_HEAP_H_
