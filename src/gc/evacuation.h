// Parallel evacuation: copies live objects out of the collection set using
// CAS-installed forwarding pointers (HotSpot-style). This is the one copy
// engine of the regional collectors (G1/NG2C/ROLP, stop-the-world and
// concurrent) and of CMS's young collections; Run is its one driver.
//
// Workers own private destination buffers (whole regions), so losing a
// forwarding race can undo the copy bump. Every collector shares one
// survivor-overflow rule: a survivor that finds no survivor space is
// promoted, and an object that finds no old space either is self-forwarded
// in place with its mark preserved for restoration after the pause
// (evacuation failure).
//
// Policy (set from state the collector already has, not from options):
//  * set_old_space: promotions go to a free-list old space (CMS) instead of
//    fresh old regions. A copy may absorb a free-list sliver, and a lost
//    forwarding race hands the block back to the free list.
//  * set_marker: an incremental old-space mark is running (CMS); promoted
//    copies are grayed and survivor copies inherit their original's mark.
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
#include <span>
#include <vector>

#include "src/gc/gc_config.h"
#include "src/gc/profiler_hooks.h"
#include "src/gc/stealable_queue.h"
#include "src/gc/watchdog/cancellation.h"
#include "src/heap/heap.h"
#include "src/util/spinlock.h"

namespace rolp {

class FreeListSpace;
class MarkBitmap;
class Marker;
class WorkerPool;

// The scan units of one Run, claimed by the workers from a shared cursor.
struct EvacuationUnits {
  // Root slots, healed in chunks of kStealChunk.
  std::span<std::atomic<Object*>* const> roots;
  // Remembered-set source regions: their objects become stealable scan items.
  std::span<Region* const> sources;
  // Tenured regions whose unmarked objects are scrubbed into free blocks
  // (ScrubDeadObjects); needs `marks`.
  std::span<Region* const> scrub;
  // Trusted marks: unmarked source objects are dead and skipped.
  const MarkBitmap* marks = nullptr;
  // Fail point each worker passes once on entry (stall injection).
  const char* stall_point = nullptr;
};

// Region scrubbing (G1-style, post-remark): overwrites every unmarked object
// in a tenured region with a free-block header. Precise (marks-trusted)
// collections skip dead objects when scanning remset sources, so dead
// objects keep whatever references they held when they died — stale edges
// into regions the cycle frees. Nothing live ever reads those slots, but the
// conservative heap walk does, and conservative young scans would resurrect
// their referents. Scrubbing removes the stale slots from the parsable heap.
// Safe to run concurrently with evacuation and with mutators: unmarked
// objects are unreachable, and region iteration reads only size_bytes, which
// scrubbing never changes. Returns the number of bytes scrubbed.
size_t ScrubDeadObjects(Region* region, const MarkBitmap& marks);

class EvacuationTask {
  enum DestSpace : int { kDestSurvivor = 0, kDestOld = 1, kNumDestSpaces = 2 };

 public:
  // `cancel` (optional, watchdog): once set, workers stop copying and
  // self-forward every remaining cset object in place — the same bounded
  // failure path as to-space exhaustion, so the pause still finishes with a
  // parsable heap and failed() triggers the full-collection fallback.
  EvacuationTask(Heap* heap, const GcConfig* config, ProfilerHooks* profiler,
                 bool survivor_tracking, uint32_t num_workers,
                 CancellationToken* cancel = nullptr);

  // Per-worker evacuation context, owned by the task. One per work item id.
  class Worker {
   public:
    Worker(EvacuationTask* task, uint32_t worker_id) : task_(task), worker_id_(worker_id) {}

    uint64_t bytes_copied() const { return bytes_copied_; }
    uint64_t bytes_promoted() const { return bytes_promoted_; }

   private:
    friend class EvacuationTask;

    // Evacuates the target of a root slot if it is in the collection set.
    void ProcessRootSlot(std::atomic<Object*>* slot);
    // Scans one work item: heals obj's ref slots (evacuating cset targets
    // transitively) and maintains remembered sets against obj's own region.
    // Works uniformly for to-space copies and for live objects in remset
    // source regions, so both kinds share the work-stealing item type.
    void ScanObject(Object* obj);
    // Retires destination buffers (frees empty ones).
    void Finish();

    EvacuationTask* task_;
    uint32_t worker_id_;
    Region* dest_[kNumDestSpaces] = {nullptr, nullptr};
    // Marks of self-forwarded objects, restored after the pause.
    std::vector<std::pair<Object*, uint64_t>> preserved_marks_;
    uint64_t bytes_copied_ = 0;
    uint64_t bytes_promoted_ = 0;
  };

  // --- Policy (before any Run) ---------------------------------------------
  void set_old_space(FreeListSpace* space) { old_space_ = space; }
  void set_marker(Marker* marker) { marker_ = marker; }

  // The driver. Dispatches one item per worker on `pool`: each claims scan
  // units (root chunks, then source regions, then scrub regions) from a
  // shared cursor, publishing every object that needs a referent scan —
  // to-space copies and live source-region objects alike — on its own
  // Chase-Lev deque, then drains the deques (and, in concurrent mode, the
  // mutator-injected items) with stealing until the shared outstanding count
  // reaches zero, and finally retires its destination buffers. No
  // cancellation bail-out: once cancelled, copying degrades to bounded
  // self-forward healing that must still run for the heap to stay parsable.
  // Runs may repeat on one task. With no `pool`, the calling thread runs
  // worker 0's part alone: the concurrent cycle's final pause, whose few
  // leftovers do not pay for waking the workers.
  void Run(WorkerPool* pool, const EvacuationUnits& units);

  // Heals `roots` on the calling thread as worker 0 without draining: the
  // copies wait on worker 0's deque for the next Run. The concurrent cycle's
  // arming pause uses it to establish the to-space invariant for roots.
  void HealRoots(std::span<std::atomic<Object*>* const> roots);

  // Whether any object was self-forwarded (to-space exhaustion or cancel).
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }
  const Worker& worker(uint32_t w) const { return workers_[w]; }

  // --- Concurrent mode ------------------------------------------------------
  // Must be set before any worker runs; once on, ScanObject heals slots with
  // CAS (keeping racing mutator stores) and MutatorHeal becomes legal.
  void set_concurrent(bool v) { concurrent_ = v; }

  // Mutator-side copy-on-first-touch (load-barrier slow path). Returns the
  // to-space address of `obj` (copying it if unforwarded), or `obj` itself
  // after self-forwarding it when to-space is exhausted or the cycle was
  // cancelled. Never scans: the winning copy (or the self-forwarded
  // original) is injected for the GC workers / final pause to scan. Safe to
  // race with GC workers and other mutators; any thread may call it.
  Object* MutatorHeal(Object* obj);

  // Frees empty shared to-space buffers (final pause, after all healing).
  void FinishShared();

  uint64_t mutator_bytes_copied() const {
    return mutator_bytes_copied_.load(std::memory_order_relaxed);
  }
  uint64_t mutator_bytes_promoted() const {
    return mutator_bytes_promoted_.load(std::memory_order_relaxed);
  }

  // After all copying, in two steps (the workers' private lists plus the
  // shared mutator-side list). FlagEvacFailedRegions flags each region
  // containing in-place survivors via Region::set_evac_failed and leaves
  // their self-forwards installed, so the collector's cset walk (which reads
  // and clears the flag — O(cset), not O(cset * failed)) can tell a survivor
  // from an object the evacuation never reached. RestoreSelfForwarded then
  // restores the survivors' marks.
  void FlagEvacFailedRegions();
  void RestoreSelfForwarded();

 private:
  // The one copy routine. `w` is the calling GC worker, or nullptr for a
  // mutator heal. Returns the forwardee of `obj`: the winning copy, or `obj`
  // itself once self-forwarded (no space, or cancelled). A worker publishes
  // the result on its deque; a mutator injects it.
  Object* Evacuate(Object* obj, Worker* w);
  // Allocates `bytes` for a copy into *space under the survivor-overflow
  // rule: *space becomes kDestOld on a promotion, *actual the block size.
  // Workers bump their private buffers; mutators bump the shared ones under
  // shared_lock_ (mutator copies are rare transients). GC-internal, so it
  // may dip into the governor's evacuation reserve.
  char* AllocCopy(Worker* w, int* space, size_t bytes, size_t* actual);
  char* BumpInDest(Region** dest, int space, size_t bytes);
  // Hands an object whose referents still need a scan to the workers.
  void Publish(Object* obj, Worker* w);
  // Calls fn(obj, preserved_mark) for every self-forwarded object.
  template <typename Fn>
  void ForEachSelfForwarded(Fn&& fn);
  // Pops one injected object. The injection was pre-counted in the pool's
  // outstanding counter, so the worker that processes it still FinishOne(w)s.
  bool TakeInjected(Object** out);

  Heap* heap_;
  const GcConfig* config_;
  ProfilerHooks* profiler_;
  bool survivor_tracking_;
  CancellationToken* cancel_;
  FreeListSpace* old_space_ = nullptr;
  Marker* marker_ = nullptr;
  WorkStealingPool<Object*> pool_;
  std::vector<Worker> workers_;
  std::atomic<bool> failed_{false};

  bool concurrent_ = false;
  SpinLock shared_lock_;  // guards shared_dest_, injected_, shared_preserved_
  Region* shared_dest_[kNumDestSpaces] = {nullptr, nullptr};
  std::vector<Object*> injected_;
  std::atomic<size_t> injected_count_{0};  // lock-free emptiness fast path
  std::vector<std::pair<Object*, uint64_t>> shared_preserved_;
  std::atomic<uint64_t> mutator_bytes_copied_{0};
  std::atomic<uint64_t> mutator_bytes_promoted_{0};
};

}  // namespace rolp

#endif  // SRC_GC_EVACUATION_H_
