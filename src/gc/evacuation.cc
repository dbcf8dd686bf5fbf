#include "src/gc/evacuation.h"

#include <atomic>
#include <mutex>

#include "src/util/fault_injection.h"
#include "src/util/log.h"

namespace rolp {

EvacuationTask::EvacuationTask(Heap* heap, const GcConfig* config, ProfilerHooks* profiler,
                               bool survivor_tracking, CancellationToken* cancel)
    : heap_(heap),
      config_(config),
      profiler_(profiler),
      survivor_tracking_(survivor_tracking),
      cancel_(cancel) {}

char* EvacuationTask::Worker::AllocInDest(int space, size_t bytes) {
  Region* r = dest_[space];
  if (r != nullptr) {
    char* p = r->BumpAlloc(bytes);
    if (p != nullptr) {
      return p;
    }
  }
  RegionKind kind = space == kDestSurvivor ? RegionKind::kSurvivor : RegionKind::kOld;
  Region* fresh =
      task_->heap_->regions().AllocateRegion(kind, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  dest_[space] = fresh;
  return fresh->BumpAlloc(bytes);
}

Object* EvacuationTask::Worker::EvacuateOrForward(Object* obj) {
  Heap* heap = task_->heap_;
  while (true) {
    uint64_t m = obj->mark.load(std::memory_order_acquire);
    if (markword::IsForwarded(m)) {
      return markword::ForwardedPtr(m);
    }
    Region* from = heap->regions().RegionFor(obj);
    bool young_src = from->IsYoung();
    uint64_t new_mark = m;
    int space = kDestOld;
    if (young_src) {
      uint32_t new_age = markword::Age(m) + 1;
      if (new_age > markword::kMaxAge) {
        new_age = markword::kMaxAge;
      }
      new_mark = markword::SetAge(m, new_age);
      space = new_age < task_->config_->tenuring_threshold ? kDestSurvivor : kDestOld;
    }
    size_t size = obj->size_bytes;
    // Phase cancelled (watchdog): stop copying and funnel everything through
    // the bounded self-forward path below, exactly as if to-space ran out.
    bool cancelled = task_->cancel_ != nullptr && task_->cancel_->IsCancelled();
    char* to = cancelled ? nullptr : AllocInDest(space, size);
    if (to == nullptr) {
      // To-space exhaustion: self-forward in place, preserve the mark.
      uint64_t self = markword::EncodeForwarded(obj);
      if (obj->mark.compare_exchange_strong(m, self, std::memory_order_acq_rel)) {
        task_->failed_.store(true, std::memory_order_relaxed);
        preserved_marks_.emplace_back(obj, m);
        Emit(obj);  // its referents still need evacuation
        return obj;
      }
      continue;  // lost the race; retry (winner forwarded it)
    }
    CopyObjectWords(to, obj, size);
    Object* copy = reinterpret_cast<Object*>(to);
    copy->StoreMark(new_mark);
    if (obj->mark.compare_exchange_strong(m, markword::EncodeForwarded(copy),
                                          std::memory_order_acq_rel)) {
      objects_copied_++;
      bytes_copied_ += size;
      if (space == kDestOld) {
        bytes_promoted_ += size;
      }
      if (young_src && task_->survivor_tracking_ && task_->profiler_ != nullptr) {
        // Report the pre-aging mark: the profiler extracts context and age
        // (paper section 3.3) and discards biased-locked objects itself.
        task_->profiler_->OnSurvivor(worker_id_, m);
      }
      Emit(copy);
      return copy;
    }
    // Lost the forwarding race: undo our private bump and use the winner's.
    dest_[space]->UndoBumpAlloc(to, size);
  }
}

void EvacuationTask::Worker::Emit(Object* obj) {
  if (!task_->heap_->HasRefSlots(obj)) {
    return;  // a scan would visit no slot
  }
  if (task_->pool_ != nullptr) {
    task_->pool_->Push(worker_id_, obj);
  } else {
    scan_stack_.push_back(obj);
  }
}

void EvacuationTask::Worker::ScanObject(Object* obj) {
  Heap* heap = task_->heap_;
  RegionManager& regions = heap->regions();
  Region* obj_region = regions.RegionFor(obj);
  const bool concurrent = task_->concurrent_;
  heap->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(concurrent ? std::memory_order_acquire
                                      : std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    Region* vr = regions.RegionFor(v);
    if (vr->in_cset()) {
      Object* healed = EvacuateOrForward(v);
      if (concurrent) {
        // Mutators are running: heal with CAS so a racing store of a new
        // value is never clobbered. A failed CAS means the slot already
        // holds someone else's value — either the same to-space pointer
        // (another healer won) or a fresh mutator store, which is already
        // to-space (mutators only ever hold healed references) and whose
        // remset bit the store barrier recorded.
        slot->compare_exchange_strong(v, healed, std::memory_order_acq_rel,
                                      std::memory_order_relaxed);
      } else {
        slot->store(healed, std::memory_order_relaxed);
      }
      v = healed;
      vr = regions.RegionFor(v);
    }
    // Maintain remembered sets for the object's (possibly new) location.
    if (vr != obj_region && !(obj_region->IsYoung() && vr->IsYoung())) {
      vr->RemsetAddRegion(obj_region->index());
    }
  });
}

void EvacuationTask::Worker::ProcessRootSlot(std::atomic<Object*>* slot, Region* src_region) {
  Object* v = slot->load(std::memory_order_relaxed);
  if (v == nullptr) {
    return;
  }
  RegionManager& regions = task_->heap_->regions();
  Region* vr = regions.RegionFor(v);
  if (vr->in_cset()) {
    v = EvacuateOrForward(v);
    // Roots are only healed inside pauses (both modes), so a plain store is
    // race-free even in a concurrent cycle.
    slot->store(v, std::memory_order_relaxed);
    vr = regions.RegionFor(v);
  }
  if (src_region != nullptr && vr != src_region &&
      !(src_region->IsYoung() && vr->IsYoung())) {
    vr->RemsetAddRegion(src_region->index());
  }
}

void EvacuationTask::Worker::Drain() {
  while (!scan_stack_.empty()) {
    Object* obj = scan_stack_.back();
    scan_stack_.pop_back();
    ScanObject(obj);
  }
}

void EvacuationTask::Worker::Finish() {
  for (Region*& r : dest_) {
    if (r != nullptr && r->used() == 0) {
      task_->heap_->regions().FreeRegion(r);
    }
    r = nullptr;
  }
}

size_t EvacuationTask::RestoreSelfForwarded(std::vector<Worker>& workers) {
  size_t restored = 0;
  for (Worker& w : workers) {
    for (auto& [obj, mark] : w.preserved_marks_) {
      obj->StoreMark(mark);
      heap_->regions().RegionFor(obj)->set_evac_failed(true);
      restored++;
    }
  }
  // Mutator-side self-forwards (concurrent mode). Called from a pause, so
  // the lock is uncontended but still taken for the analyzer's benefit.
  std::lock_guard<SpinLock> guard(shared_lock_);
  for (auto& [obj, mark] : shared_preserved_) {
    obj->StoreMark(mark);
    heap_->regions().RegionFor(obj)->set_evac_failed(true);
    restored++;
  }
  shared_preserved_.clear();
  return restored;
}

Object* EvacuationTask::MutatorHeal(Object* obj) {
  ROLP_DCHECK(concurrent_);
  while (true) {
    uint64_t m = obj->mark.load(std::memory_order_acquire);
    if (markword::IsForwarded(m)) {
      return markword::ForwardedPtr(m);
    }
    Region* from = heap_->regions().RegionFor(obj);
    bool young_src = from->IsYoung();
    uint64_t new_mark = m;
    int space = Worker::kDestOld;
    if (young_src) {
      uint32_t new_age = markword::Age(m) + 1;
      if (new_age > markword::kMaxAge) {
        new_age = markword::kMaxAge;
      }
      new_mark = markword::SetAge(m, new_age);
      space = new_age < config_->tenuring_threshold ? Worker::kDestSurvivor : Worker::kDestOld;
    }
    size_t size = obj->size_bytes;
    // A cancelled cycle (or an injected allocation failure) funnels through
    // the same bounded self-forward path as to-space exhaustion.
    bool no_copy = cancel_ != nullptr && cancel_->IsCancelled();
    if (ROLP_FAULT_POINT("gc.concurrent_evac.copy_fail")) {
      no_copy = true;
    }
    char* to = no_copy ? nullptr : AllocShared(space, size);
    if (to == nullptr) {
      uint64_t self = markword::EncodeForwarded(obj);
      if (obj->mark.compare_exchange_strong(m, self, std::memory_order_acq_rel)) {
        failed_.store(true, std::memory_order_relaxed);
        {
          std::lock_guard<SpinLock> guard(shared_lock_);
          shared_preserved_.emplace_back(obj, m);
        }
        Inject(obj);  // its referents still need healing
        return obj;
      }
      continue;  // lost the race; retry (winner forwarded it)
    }
    CopyObjectWords(to, obj, size);
    Object* copy = reinterpret_cast<Object*>(to);
    copy->StoreMark(new_mark);
    if (obj->mark.compare_exchange_strong(m, markword::EncodeForwarded(copy),
                                          std::memory_order_acq_rel)) {
      mutator_objects_copied_.fetch_add(1, std::memory_order_relaxed);
      mutator_bytes_copied_.fetch_add(size, std::memory_order_relaxed);
      if (space == Worker::kDestOld) {
        mutator_bytes_promoted_.fetch_add(size, std::memory_order_relaxed);
      }
      // Deliberately no ProfilerHooks::OnSurvivor here: its per-worker
      // tables are single-writer per worker id (GC worker threads only);
      // mutator copies show up in the mutator_* counters instead.
      Inject(copy);  // the copy's verbatim slots still hold stale refs
      return copy;
    }
    // Lost the forwarding race. A shared bump cannot be retreated (another
    // heal may already sit past us), so scrub the duplicate into a free
    // block: walkable dead data that slot walks and the verifier skip, and
    // that dies with the region in a later collection.
    copy->StoreMark(0);
    copy->class_id = kFreeBlockClassId;
    mutator_lost_race_bytes_.fetch_add(size, std::memory_order_relaxed);
  }
}

char* EvacuationTask::AllocShared(int space, size_t bytes) {
  std::lock_guard<SpinLock> guard(shared_lock_);
  Region* r = shared_dest_[space];
  if (r != nullptr) {
    char* p = r->BumpAlloc(bytes);
    if (p != nullptr) {
      return p;
    }
  }
  RegionKind kind = space == Worker::kDestSurvivor ? RegionKind::kSurvivor : RegionKind::kOld;
  Region* fresh = heap_->regions().AllocateRegion(kind, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  // A replaced partial buffer needs no retirement: it is already a live
  // survivor/old region whose used prefix holds published copies.
  shared_dest_[space] = fresh;
  return fresh->BumpAlloc(bytes);
}

void EvacuationTask::Inject(Object* obj) {
  if (!heap_->HasRefSlots(obj)) {
    return;  // a scan would visit no slot
  }
  // Count before publishing (eagerly: a mutator holds no termination
  // credit): a worker that pops the item calls FinishOne(w), and the pool's
  // outstanding counter must never dip below the number of
  // published-but-unfinished items or the termination check fires early.
  if (pool_ != nullptr) {
    pool_->AddOutstanding(1);
  }
  std::lock_guard<SpinLock> guard(shared_lock_);
  injected_.push_back(obj);
  injected_count_.store(injected_.size(), std::memory_order_relaxed);
}

bool EvacuationTask::TakeInjected(Object** out) {
  // Lock-free fast path: workers poll this every drain iteration and the
  // queue is almost always empty (mutator heals are rare transients).
  if (injected_count_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::lock_guard<SpinLock> guard(shared_lock_);
  if (injected_.empty()) {
    return false;
  }
  *out = injected_.back();
  injected_.pop_back();
  injected_count_.store(injected_.size(), std::memory_order_relaxed);
  return true;
}

void EvacuationTask::FinishShared() {
  std::lock_guard<SpinLock> guard(shared_lock_);
  for (Region*& r : shared_dest_) {
    if (r != nullptr && r->used() == 0) {
      heap_->regions().FreeRegion(r);
    }
    r = nullptr;
  }
}

}  // namespace rolp
