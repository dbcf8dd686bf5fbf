#include "src/gc/marking.h"

#include <atomic>
#include <thread>

#include "src/gc/stealable_queue.h"
#include "src/util/fault_injection.h"

namespace rolp {

namespace {

// Live bytes are attributed to the head region for humongous objects.
Region* AccountingRegion(RegionManager& regions, Object* obj) {
  Region* r = regions.RegionFor(obj);
  // Objects never start in a continuation region.
  ROLP_DCHECK(r->kind() != RegionKind::kHumongousCont);
  return r;
}

}  // namespace

void Marker::Visit(Object* obj) {
  if (obj == nullptr || !bitmap_->Mark(obj)) {
    return;
  }
  AccountingRegion(heap_->regions(), obj)->AddLiveBytes(obj->size_bytes);
  marked_objects_++;
  marked_bytes_ += obj->size_bytes;
  mark_stack_.push_back(obj);
}

void Marker::Reset() {
  bitmap_->ClearAll();
  heap_->regions().ForEachRegion([](Region* r) { r->set_live_bytes(0); });
  marked_objects_ = 0;
  marked_bytes_ = 0;
  cancelled_ = false;
}

void Marker::VisitRoots(SafepointManager* safepoints) {
  ForEachRootSlot(heap_->roots(), safepoints, [&](std::atomic<Object*>* slot) {
    Visit(slot->load(std::memory_order_relaxed));
  });
}

bool Marker::Trace(size_t budget_bytes, CancellationToken* cancel) {
  size_t traced = 0;
  uint64_t steps = 0;
  for (;;) {
    if (mark_stack_.empty()) {
      std::lock_guard<SpinLock> guard(gray_lock_);
      if (gray_queue_.empty()) {
        return true;
      }
      for (Object* obj : gray_queue_) {
        Visit(obj);
      }
      gray_queue_.clear();
      continue;
    }
    if (traced >= budget_bytes) {
      return false;
    }
    if ((++steps & 63) == 0 && cancel != nullptr && cancel->IsCancelled()) {
      cancelled_ = true;
      return false;
    }
    Object* obj = mark_stack_.back();
    mark_stack_.pop_back();
    traced += obj->size_bytes;
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
      Visit(slot->load(std::memory_order_relaxed));
    });
  }
}

void Marker::Start(SafepointManager* safepoints) {
  Reset();
  VisitRoots(safepoints);
  armed_.store(true, std::memory_order_relaxed);
}

bool Marker::Step(size_t budget_bytes) {
  std::unique_lock<SpinLock> slice(step_lock_, std::try_to_lock);
  return slice.owns_lock() && Trace(budget_bytes, nullptr);
}

void Marker::Remark(SafepointManager* safepoints) {
  std::lock_guard<SpinLock> slice(step_lock_);
  VisitRoots(safepoints);
  Trace(SIZE_MAX, nullptr);
  armed_.store(false, std::memory_order_relaxed);
}

void Marker::RemapWorklists() {
  RegionManager& regions = heap_->regions();
  auto remap = [&](std::vector<Object*>* worklist) {
    size_t out = 0;
    for (Object* obj : *worklist) {
      uint64_t m = obj->LoadMark();
      if (markword::IsForwarded(m)) {
        // Follows the copy; a self-forwarded object (evacuation failure)
        // stays in place.
        (*worklist)[out++] = markword::ForwardedPtr(m);
      } else if (!regions.RegionFor(obj)->in_cset()) {
        (*worklist)[out++] = obj;
      }
      // Otherwise a dead young object: incremental-update marking does not
      // need to trace from dead sources.
    }
    worklist->resize(out);
  };
  std::lock_guard<SpinLock> guard(gray_lock_);
  remap(&gray_queue_);
  remap(&mark_stack_);
}

void Marker::Abandon() {
  std::lock_guard<SpinLock> guard(gray_lock_);
  gray_queue_.clear();
  mark_stack_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

void Marker::MarkFromRoots(SafepointManager* safepoints, WorkerPool* workers,
                           CancellationToken* cancel) {
  Reset();
  if (workers == nullptr || workers->size() == 1) {
    // Stall-only fail point: a delay:<ms> arm sleeps here and returns false.
    (void)ROLP_FAULT_POINT("gc.phase.mark.stall");
    VisitRoots(safepoints);
    if (!Trace(SIZE_MAX, cancel)) {
      mark_stack_.clear();  // cancelled: the partial marking is discarded
    }
    return;
  }

  // Gather root slots (world is stopped; plain snapshot is safe).
  std::vector<std::atomic<Object*>*> roots;
  ForEachRootSlot(heap_->roots(), safepoints,
                  [&](std::atomic<Object*>* slot) { roots.push_back(slot); });

  // Parallel: root slots are claimed in chunks from a shared cursor; each
  // marked object goes onto the claiming worker's Chase-Lev deque, and idle
  // workers steal from the others — a worker that lands on a root pointing at
  // a huge structure no longer serializes the phase. Workers claim objects
  // via the atomic bitmap, so double-visits are impossible even when an item
  // is stolen concurrently with a retry. Termination: the pool's outstanding
  // counter covers both the root chunks (pre-added) and every queued object.
  uint32_t n = workers->size();
  WorkStealingPool<Object*> pool(n);
  const size_t chunk = kStealChunk;
  const size_t num_units = (roots.size() + chunk - 1) / chunk;
  pool.AddOutstanding(static_cast<int64_t>(num_units));
  std::atomic<size_t> cursor{0};
  std::vector<uint64_t> objs(n, 0);
  std::vector<uint64_t> bytes(n, 0);
  workers->RunTask([&](uint32_t w) {
    // Stall-only fail point: a delay:<ms> arm sleeps here and returns false.
    (void)ROLP_FAULT_POINT("gc.phase.mark.stall");
    uint64_t local_objs = 0;
    uint64_t local_bytes = 0;
    uint64_t steps = 0;
    auto visit = [&](Object* obj) {
      if (obj == nullptr || !bitmap_->Mark(obj)) {
        return;
      }
      AccountingRegion(heap_->regions(), obj)->AddLiveBytes(obj->size_bytes);
      local_objs++;
      local_bytes += obj->size_bytes;
      pool.Push(w, obj);
    };
    for (;;) {
      size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= roots.size()) {
        break;
      }
      workers->Heartbeat(w);
      size_t end = begin + chunk < roots.size() ? begin + chunk : roots.size();
      for (size_t i = begin; i < end; i++) {
        visit(roots[i]->load(std::memory_order_relaxed));
      }
      pool.FinishOne(w);
    }
    Object* obj = nullptr;
    bool bailed = false;
    while (!bailed) {
      if (pool.TryGet(w, &obj)) {
        heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
          visit(slot->load(std::memory_order_relaxed));
        });
        pool.FinishOne(w);
        if ((++steps & 63) == 0) {
          workers->Heartbeat(w);
          bailed = cancel != nullptr && cancel->IsCancelled();
        }
        continue;
      }
      if (pool.Done()) {
        break;
      }
      // All queues looked empty but a straggler still holds work: spin
      // politely, keep publishing liveness, and watch for cancellation.
      workers->Heartbeat(w);
      if (cancel != nullptr && cancel->IsCancelled()) {
        break;  // partial marking; caller discards and falls back
      }
      std::this_thread::yield();
    }
    objs[w] = local_objs;
    bytes[w] = local_bytes;
  });
  if (cancel != nullptr && cancel->IsCancelled()) {
    cancelled_ = true;
    return;
  }
  for (uint32_t w = 0; w < n; w++) {
    marked_objects_ += objs[w];
    marked_bytes_ += bytes[w];
  }
}

}  // namespace rolp
