// The tracing engine. Fills the mark bitmap and per-region live byte counts.
//
// Two modes share one bitmap/live-bytes contract:
//  * MarkFromRoots: stop-the-world, serial or work-stealing parallel. Used by
//    mixed collections (to pick the collection set) and by the
//    full-compaction fallback.
//  * Incremental (Start / Step / Remark): the mostly-concurrent mark of CMS
//    and ZGC. Mutators advance it in budgeted slices from the allocation path
//    while an incremental-update store barrier grays newly stored values.
#ifndef SRC_GC_MARKING_H_
#define SRC_GC_MARKING_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "src/gc/mark_bitmap.h"
#include "src/gc/thread_context.h"
#include "src/gc/watchdog/cancellation.h"
#include "src/gc/worker_pool.h"
#include "src/heap/heap.h"
#include "src/util/spinlock.h"

namespace rolp {

class Marker {
 public:
  Marker(Heap* heap, MarkBitmap* bitmap) : heap_(heap), bitmap_(bitmap) {}

  // Must run while the world is stopped. Clears the bitmap and all region
  // live counts, then traces from global roots and every registered thread's
  // local roots. Humongous objects are marked on their head region.
  //
  // If `cancel` is set (watchdog), workers poll it every ~64 objects and bail
  // out; cancelled() then reports true and the bitmap/live counts are
  // PARTIAL — callers must discard them and fall back to a full STW cycle.
  void MarkFromRoots(SafepointManager* safepoints, WorkerPool* workers,
                     CancellationToken* cancel = nullptr);

  bool cancelled() const { return cancelled_; }

  // --- Incremental mode -------------------------------------------------------
  // World stopped: clears the bitmap and live counts, grays every root and
  // arms the barrier. The barrier stays armed until Remark's drain ends.
  void Start(SafepointManager* safepoints);

  // Store-barrier hook: grays `value` while a cycle is armed.
  void BarrierPush(Object* value) {
    if (armed_.load(std::memory_order_relaxed) && value != nullptr) {
      std::lock_guard<SpinLock> guard(gray_lock_);
      gray_queue_.push_back(value);
    }
  }

  // A young evacuation copied `from` to `copy` while a cycle runs: a promoted
  // copy enters the old space unmarked, so it is grayed for the marker to
  // mark and trace; a survivor copy keeps its original's mark. Thread-safe.
  void OnYoungCopy(const Object* from, Object* copy, bool promoted) {
    if (promoted) {
      BarrierPush(copy);
    } else if (bitmap_->IsMarked(from)) {
      bitmap_->Mark(copy);
    }
  }

  // One slice: traces objects until `budget_bytes` of them are scanned or the
  // worklists run dry. Returns true when both the mark stack and the gray
  // queue are drained. Slices are serialized; a caller that finds another
  // slice running returns false at once.
  bool Step(size_t budget_bytes);

  // World stopped: re-grays the roots, drains to completion and disarms the
  // barrier.
  void Remark(SafepointManager* safepoints);

  // World stopped, after a young evacuation: worklist entries follow their
  // forwarding pointers; unforwarded entries still in the collection set are
  // dead young objects and are dropped.
  void RemapWorklists();

  // World stopped: drops both worklists and disarms the barrier (the cycle is
  // abandoned for a full collection).
  void Abandon();

  uint64_t marked_objects() const { return marked_objects_; }
  uint64_t marked_bytes() const { return marked_bytes_; }

 private:
  // Marks obj if unmarked and pushes it on the mark stack. Accounts live bytes.
  void Visit(Object* obj);
  // Clears the bitmap, every region's live count and the counters.
  void Reset();
  void VisitRoots(SafepointManager* safepoints);
  // The serial trace loop: moves barrier grays onto the mark stack as it
  // empties. Returns true when both are drained; false when `budget_bytes` ran
  // out or `cancel` fired.
  bool Trace(size_t budget_bytes, CancellationToken* cancel);

  Heap* heap_;
  MarkBitmap* bitmap_;
  uint64_t marked_objects_ = 0;
  uint64_t marked_bytes_ = 0;
  bool cancelled_ = false;

  std::atomic<bool> armed_{false};
  SpinLock gray_lock_;
  std::vector<Object*> gray_queue_;  // barrier grays, guarded by gray_lock_
  SpinLock step_lock_;               // serializes Trace over mark_stack_
  std::vector<Object*> mark_stack_;
};

}  // namespace rolp

#endif  // SRC_GC_MARKING_H_
