// Parallel evacuation: copies live objects out of the collection set using
// CAS-installed forwarding pointers (HotSpot-style). Workers own private
// destination buffers (whole regions), so losing a forwarding race can undo
// the copy bump. Evacuation failure (to-space exhaustion) self-forwards the
// object in place and preserves its mark for restoration after the pause.
//
// Concurrent mode (set_concurrent, DESIGN.md section 14): the same task also
// runs with mutators live. Slot healing switches from plain stores to CAS so
// a mutator's newer store is never overwritten, and mutators join the copy
// protocol through MutatorHeal — copy-on-first-touch from a shared, lock-
// guarded to-space, with the winning copy injected into the worker pool so
// its verbatim-copied (still stale) slots get scanned. A mutator copy that
// loses the forwarding race cannot undo a shared bump, so the duplicate is
// scrubbed into a free block (walkable dead data, reclaimed with the region).
#ifndef SRC_GC_EVACUATION_H_
#define SRC_GC_EVACUATION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/gc/gc_config.h"
#include "src/gc/profiler_hooks.h"
#include "src/gc/stealable_queue.h"
#include "src/gc/watchdog/cancellation.h"
#include "src/heap/heap.h"
#include "src/util/spinlock.h"

namespace rolp {

class EvacuationTask {
 public:
  // `cancel` (optional, watchdog): once set, workers stop copying and
  // self-forward every remaining cset object in place — the same bounded
  // failure path as to-space exhaustion, so the pause still finishes with a
  // parsable heap and failed() triggers the full-collection fallback.
  EvacuationTask(Heap* heap, const GcConfig* config, ProfilerHooks* profiler,
                 bool survivor_tracking, CancellationToken* cancel = nullptr);

  // Per-worker evacuation context. Not thread-safe; one per GC worker.
  class Worker {
   public:
    Worker(EvacuationTask* task, uint32_t worker_id) : task_(task), worker_id_(worker_id) {}

    // Evacuates the target of a root slot if it is in the collection set.
    // src_region: region containing the slot (nullptr for global/thread
    // roots); used to maintain remembered sets on updated references.
    void ProcessRootSlot(std::atomic<Object*>* slot, Region* src_region);

    // Scans one work item: heals obj's ref slots (evacuating cset targets
    // transitively) and maintains remembered sets against obj's own region.
    // Works uniformly for to-space copies and for live objects in remset
    // source regions, so both kinds share the work-stealing item type.
    void ScanObject(Object* obj);

    // Drains this worker's private scan stack, evacuating transitively.
    // Only meaningful when the task has no work-stealing pool attached
    // (set_pool not called): with a pool, items go to the deques and the
    // caller's steal loop drains them instead.
    void Drain();

    // Retires destination buffers; called once after Drain.
    void Finish();

    uint64_t bytes_copied() const { return bytes_copied_; }
    uint64_t objects_copied() const { return objects_copied_; }
    uint64_t bytes_promoted() const { return bytes_promoted_; }

   private:
    friend class EvacuationTask;

    enum DestSpace : int { kDestSurvivor = 0, kDestOld = 1, kNumDestSpaces = 2 };

    Object* EvacuateOrForward(Object* obj);
    char* AllocInDest(int space, size_t bytes);
    // Publishes an object whose referents still need scanning: onto this
    // worker's deque when a pool is attached, else the private scan stack.
    void Emit(Object* obj);

    EvacuationTask* task_;
    uint32_t worker_id_;
    Region* dest_[kNumDestSpaces] = {nullptr, nullptr};
    std::vector<Object*> scan_stack_;
    // Marks of self-forwarded objects, restored after the pause.
    std::vector<std::pair<Object*, uint64_t>> preserved_marks_;
    uint64_t bytes_copied_ = 0;
    uint64_t objects_copied_ = 0;
    uint64_t bytes_promoted_ = 0;
  };

  Worker MakeWorker(uint32_t worker_id) { return Worker(this, worker_id); }

  // Attaches the per-pause work-stealing pool. When set, workers Emit
  // discovered objects onto their own deque (pool->Push(worker_id, obj)) so
  // idle workers can steal them; the caller owns termination via the pool's
  // outstanding counter. When unset, workers fall back to private scan
  // stacks drained by Drain() (single-threaded building block, tests).
  void set_pool(WorkStealingPool<Object*>* pool) { pool_ = pool; }

  // Whether any worker hit to-space exhaustion.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  // --- Concurrent mode ------------------------------------------------------
  // Must be set before any worker runs; once on, ScanObject heals slots with
  // CAS (keeping racing mutator stores) and MutatorHeal becomes legal.
  void set_concurrent(bool v) { concurrent_ = v; }
  bool concurrent() const { return concurrent_; }

  // Mutator-side copy-on-first-touch (load-barrier slow path). Returns the
  // to-space address of `obj` (copying it if unforwarded), or `obj` itself
  // after self-forwarding it when to-space is exhausted or the cycle was
  // cancelled. Never scans: the winning copy (or the self-forwarded
  // original) is injected for the GC workers / final pause to scan. Safe to
  // race with GC workers and other mutators; any thread may call it.
  Object* MutatorHeal(Object* obj);

  // Pops one injected object (mutator-made copy or self-forward needing a
  // referent scan). Workers poll this alongside the stealing pool; the final
  // pause drains the leftovers injected after the workers exited. The
  // injection was pre-counted in the pool's outstanding counter (when one is
  // attached), so a worker that processes the item must still FinishOne(w).
  bool TakeInjected(Object** out);

  // Frees empty shared to-space buffers (final pause, after all healing).
  void FinishShared();

  uint64_t mutator_objects_copied() const {
    return mutator_objects_copied_.load(std::memory_order_relaxed);
  }
  uint64_t mutator_bytes_copied() const {
    return mutator_bytes_copied_.load(std::memory_order_relaxed);
  }
  uint64_t mutator_bytes_promoted() const {
    return mutator_bytes_promoted_.load(std::memory_order_relaxed);
  }
  // Bytes wasted by mutator copies that lost the forwarding race (scrubbed
  // into free blocks in to-space).
  uint64_t mutator_lost_race_bytes() const {
    return mutator_lost_race_bytes_.load(std::memory_order_relaxed);
  }

  // After all workers finished: restores self-forwarded marks (the workers'
  // private lists plus the shared mutator-side list) and flags each region
  // containing in-place survivors via Region::set_evac_failed (the collector
  // reads and clears the flag while walking the cset — O(cset), not
  // O(cset * failed)). Returns how many objects were self-forwarded.
  // Workers must be passed in; their preserved lists live in them.
  size_t RestoreSelfForwarded(std::vector<Worker>& workers);

  Heap* heap() { return heap_; }

 private:
  // Shared to-space bump allocation for mutator heals (lock-guarded: mutator
  // copies are rare transients, the workers do the bulk through their private
  // buffers). GC-internal, so it may dip into the governor's evacuation
  // reserve.
  char* AllocShared(int space, size_t bytes);
  // Queues an object for a referent scan from a non-worker thread,
  // pre-counting it in the pool's outstanding counter so the workers'
  // termination check covers it.
  void Inject(Object* obj);

  Heap* heap_;
  const GcConfig* config_;
  ProfilerHooks* profiler_;
  bool survivor_tracking_;
  CancellationToken* cancel_;
  WorkStealingPool<Object*>* pool_ = nullptr;
  std::atomic<bool> failed_{false};

  bool concurrent_ = false;
  SpinLock shared_lock_;  // guards shared_dest_, injected_, shared_preserved_
  Region* shared_dest_[Worker::kNumDestSpaces] = {nullptr, nullptr};
  std::vector<Object*> injected_;
  std::atomic<size_t> injected_count_{0};  // lock-free emptiness fast path
  std::vector<std::pair<Object*, uint64_t>> shared_preserved_;
  std::atomic<uint64_t> mutator_objects_copied_{0};
  std::atomic<uint64_t> mutator_bytes_copied_{0};
  std::atomic<uint64_t> mutator_bytes_promoted_{0};
  std::atomic<uint64_t> mutator_lost_race_bytes_{0};
};

}  // namespace rolp

#endif  // SRC_GC_EVACUATION_H_
