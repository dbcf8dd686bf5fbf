#include "src/gc/evacuation.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "src/gc/free_list_space.h"
#include "src/gc/marking.h"
#include "src/gc/worker_pool.h"
#include "src/util/check.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics_registry.h"

namespace rolp {

size_t ScrubDeadObjects(Region* region, const MarkBitmap& marks) {
  size_t scrubbed = 0;
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId || marks.IsMarked(obj)) {
      return;
    }
    ScrubToFreeBlock(obj);
    scrubbed += obj->size_bytes;
  });
  if (scrubbed > 0) {
    MetricsRegistry::Instance().Counter("gc.scrubbed_bytes")->Add(scrubbed);
  }
  return scrubbed;
}

EvacuationTask::EvacuationTask(Heap* heap, const GcConfig* config, ProfilerHooks* profiler,
                               bool survivor_tracking, uint32_t num_workers,
                               CancellationToken* cancel)
    : heap_(heap),
      config_(config),
      profiler_(profiler),
      survivor_tracking_(survivor_tracking),
      cancel_(cancel),
      pool_(num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; w++) {
    workers_.emplace_back(this, w);
  }
}

void EvacuationTask::Run(WorkerPool* pool, const EvacuationUnits& units) {
  ROLP_DCHECK(pool == nullptr || pool->size() == workers_.size());
  ROLP_DCHECK(units.scrub.empty() || units.marks != nullptr);
  // Source regions enqueue their live objects as stealable items rather than
  // scanning inline: one dense region does not serialize the phase on
  // whichever worker claimed it.
  auto enqueue_source = [&](uint32_t w, Region* s) {
    s->ForEachObject([&](Object* obj) {
      if (units.marks != nullptr && !units.marks->IsMarked(obj)) {
        return;  // precise: skip dead objects when marks are fresh
      }
      if (heap_->HasRefSlots(obj)) {
        pool_.Push(w, obj);
      }
    });
  };
  std::span<Region* const> sources = units.sources;
  if (old_space_ != nullptr) {
    ROLP_DCHECK(pool != nullptr);
    // Free-list promotions split blocks inside existing old regions, which
    // may be sources: walking one while a copy lands in it would read a
    // half-written header. Enqueue every source before anything is copied.
    pool->ParallelFor(sources.size(), 1, [&](uint32_t w, size_t begin, size_t end) {
      for (size_t i = begin; i < end; i++) {
        enqueue_source(w, sources[i]);
      }
    });
    sources = {};
  }
  const size_t chunk = kStealChunk;
  const size_t root_units = (units.roots.size() + chunk - 1) / chunk;
  const size_t source_end = root_units + sources.size();
  const size_t total_units = source_end + units.scrub.size();
  // Counted before any worker can observe the pool.
  pool_.AddOutstanding(static_cast<int64_t>(total_units));
  std::atomic<size_t> cursor{0};
  auto heartbeat = [&](uint32_t w) {
    if (pool != nullptr) {
      pool->Heartbeat(w);
    }
  };
  auto body = [&](uint32_t w) {
    if (units.stall_point != nullptr) {
      // Stall-only fail point: a delay:<ms> arm sleeps here and returns false.
      (void)ROLP_FAULT_POINT(units.stall_point);
    }
    Worker& ew = workers_[w];
    for (;;) {
      size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
      if (u >= total_units) {
        break;
      }
      heartbeat(w);
      if (u < root_units) {
        size_t begin = u * chunk;
        size_t end = begin + chunk < units.roots.size() ? begin + chunk : units.roots.size();
        for (size_t i = begin; i < end; i++) {
          ew.ProcessRootSlot(units.roots[i]);
        }
      } else if (u < source_end) {
        // Safe to walk off-pause too: mutators only allocate into regions
        // that were free at the arming pause, which are never remset
        // sources, and object sizes never change in place.
        enqueue_source(w, sources[u - root_units]);
      } else {
        // Dead objects are unreachable, so the free-block rewrite races with
        // nothing — a source unit walking the same region reads only
        // size_bytes and marked objects.
        ScrubDeadObjects(units.scrub[u - source_end], *units.marks);
      }
      pool_.FinishOne(w);
    }
    // Drain until the outstanding count (queued items, unfinished units and
    // pre-counted injections) reaches zero; a straggler may still publish.
    uint64_t steps = 0;
    Object* obj = nullptr;
    for (;;) {
      if (pool_.TryGet(w, &obj) || (concurrent_ && TakeInjected(&obj))) {
        ew.ScanObject(obj);
        pool_.FinishOne(w);
        if ((++steps & 63) == 0) {
          heartbeat(w);
        }
        continue;
      }
      if (pool_.Done()) {
        break;
      }
      heartbeat(w);
      std::this_thread::yield();
    }
    ew.Finish();
  };
  if (pool == nullptr) {
    body(0);
  } else {
    pool->RunTask(body);
  }
}

void EvacuationTask::HealRoots(std::span<std::atomic<Object*>* const> roots) {
  for (std::atomic<Object*>* slot : roots) {
    workers_[0].ProcessRootSlot(slot);
  }
}

char* EvacuationTask::BumpInDest(Region** dest, int space, size_t bytes) {
  Region* r = dest[space];
  if (r != nullptr) {
    char* p = r->BumpAlloc(bytes);
    if (p != nullptr) {
      return p;
    }
  }
  RegionKind kind = space == kDestSurvivor ? RegionKind::kSurvivor : RegionKind::kOld;
  Region* fresh = heap_->regions().AllocateRegion(kind, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  // A replaced partial buffer needs no retirement: it is already a live
  // survivor/old region whose used prefix holds published copies.
  dest[space] = fresh;
  return fresh->BumpAlloc(bytes);
}

char* EvacuationTask::AllocCopy(Worker* w, int* space, size_t bytes, size_t* actual) {
  *actual = bytes;
  auto bump = [&](int sp) {
    if (w != nullptr) {
      return BumpInDest(w->dest_, sp, bytes);
    }
    std::lock_guard<SpinLock> guard(shared_lock_);
    return BumpInDest(shared_dest_, sp, bytes);
  };
  if (*space == kDestSurvivor) {
    if (char* p = bump(kDestSurvivor)) {
      return p;
    }
    *space = kDestOld;  // survivor space exhausted: promote
  }
  if (old_space_ == nullptr) {
    return bump(kDestOld);
  }
  char* p = old_space_->Allocate(bytes, actual);
  if (p != nullptr) {
    return p;
  }
  Region* fresh = heap_->regions().AllocateRegion(RegionKind::kOld, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  old_space_->AddRegion(fresh);
  return old_space_->Allocate(bytes, actual);
}

Object* EvacuationTask::Evacuate(Object* obj, Worker* w) {
  while (true) {
    uint64_t m = obj->mark.load(std::memory_order_acquire);
    if (markword::IsForwarded(m)) {
      return markword::ForwardedPtr(m);
    }
    // Age young objects; those at the tenuring threshold are promoted.
    bool young_src = heap_->regions().RegionFor(obj)->IsYoung();
    uint64_t new_mark = m;
    int space = kDestOld;
    if (young_src) {
      uint32_t new_age = markword::Age(m) + 1;
      if (new_age > markword::kMaxAge) {
        new_age = markword::kMaxAge;
      }
      new_mark = markword::SetAge(m, new_age);
      space = new_age < config_->tenuring_threshold ? kDestSurvivor : kDestOld;
    }
    size_t size = obj->size_bytes;
    size_t actual = size;
    // A cancelled phase (watchdog) or an injected mutator-copy failure
    // funnels through the bounded self-forward path below, exactly as if
    // to-space ran out.
    bool no_copy = cancel_ != nullptr && cancel_->IsCancelled();
    if (w == nullptr && ROLP_FAULT_POINT("gc.concurrent_evac.copy_fail")) {
      no_copy = true;
    }
    char* to = no_copy ? nullptr : AllocCopy(w, &space, size, &actual);
    if (to == nullptr) {
      // Evacuation failure: self-forward in place, preserve the mark.
      uint64_t self = markword::EncodeForwarded(obj);
      if (obj->mark.compare_exchange_strong(m, self, std::memory_order_acq_rel)) {
        failed_.store(true, std::memory_order_relaxed);
        if (w != nullptr) {
          w->preserved_marks_.emplace_back(obj, m);
        } else {
          std::lock_guard<SpinLock> guard(shared_lock_);
          shared_preserved_.emplace_back(obj, m);
        }
        Publish(obj, w);  // its referents still need evacuation
        return obj;
      }
      continue;  // lost the race; retry (winner forwarded it)
    }
    CopyObjectWords(to, obj, size);
    Object* copy = reinterpret_cast<Object*>(to);
    copy->size_bytes = static_cast<uint32_t>(actual);  // may absorb a free-list sliver
    copy->StoreMark(new_mark);
    if (obj->mark.compare_exchange_strong(m, markword::EncodeForwarded(copy),
                                          std::memory_order_acq_rel)) {
      if (w == nullptr) {
        // No ProfilerHooks::OnSurvivor for mutator copies: its per-worker
        // tables are single-writer per worker id (GC worker threads only).
        mutator_bytes_copied_.fetch_add(size, std::memory_order_relaxed);
        if (space == kDestOld) {
          mutator_bytes_promoted_.fetch_add(size, std::memory_order_relaxed);
        }
      } else {
        w->bytes_copied_ += size;
        if (space == kDestOld) {
          w->bytes_promoted_ += size;
        }
        if (young_src && survivor_tracking_ && profiler_ != nullptr) {
          // Report the pre-aging mark: the profiler extracts context and age
          // (paper section 3.3) and discards biased-locked objects itself.
          profiler_->OnSurvivor(w->worker_id_, m);
        }
      }
      if (marker_ != nullptr) {
        marker_->OnYoungCopy(obj, copy, space == kDestOld);
      }
      Publish(copy, w);  // the copy's verbatim slots still hold stale refs
      return copy;
    }
    // Lost the forwarding race: give the block back and use the winner's.
    if (space == kDestOld && old_space_ != nullptr) {
      old_space_->AddFreeBlock(to, actual);  // a free-list block has no undo
    } else if (w != nullptr) {
      w->dest_[space]->UndoBumpAlloc(to, size);
    } else {
      // A shared bump cannot be retreated (another heal may already sit past
      // us), so the duplicate becomes a free block that dies with the region
      // in a later collection.
      ScrubToFreeBlock(copy);
    }
  }
}

void EvacuationTask::Publish(Object* obj, Worker* w) {
  if (!heap_->HasRefSlots(obj)) {
    return;  // a scan would visit no slot
  }
  if (w != nullptr) {
    pool_.Push(w->worker_id_, obj);
    return;
  }
  // Injected from a mutator: counted before publishing (eagerly: a mutator
  // holds no termination credit), since the worker that pops the item calls
  // FinishOne(w) and the pool's outstanding counter must never dip below the
  // number of published-but-unfinished items.
  pool_.AddOutstanding(1);
  std::lock_guard<SpinLock> guard(shared_lock_);
  injected_.push_back(obj);
  injected_count_.store(injected_.size(), std::memory_order_relaxed);
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
      Object* healed = task_->Evacuate(v, this);
      if (healed == v) {
        // Self-forwarded in place: the slot already holds it, and its region
        // retires to old, so the edge needs a remset entry even from a young
        // holder.
        if (vr != obj_region) {
          vr->RemsetAddRegion(obj_region->index());
        }
        return;
      }
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

void EvacuationTask::Worker::ProcessRootSlot(std::atomic<Object*>* slot) {
  Object* v = slot->load(std::memory_order_relaxed);
  if (v != nullptr && task_->heap_->regions().RegionFor(v)->in_cset()) {
    // Roots are only healed inside pauses (both modes), so a plain store is
    // race-free even in a concurrent cycle. Roots live outside the heap and
    // need no remset.
    slot->store(task_->Evacuate(v, this), std::memory_order_relaxed);
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

template <typename Fn>
void EvacuationTask::ForEachSelfForwarded(Fn&& fn) {
  for (Worker& w : workers_) {
    for (auto& [obj, mark] : w.preserved_marks_) {
      fn(obj, mark);
    }
  }
  // Mutator-side self-forwards (concurrent mode). Called from a pause, so
  // the lock is uncontended but still taken for the analyzer's benefit.
  std::lock_guard<SpinLock> guard(shared_lock_);
  for (auto& [obj, mark] : shared_preserved_) {
    fn(obj, mark);
  }
}

void EvacuationTask::FlagEvacFailedRegions() {
  ForEachSelfForwarded(
      [&](Object* obj, uint64_t) { heap_->regions().RegionFor(obj)->set_evac_failed(true); });
}

void EvacuationTask::RestoreSelfForwarded() {
  ForEachSelfForwarded([](Object* obj, uint64_t mark) { obj->StoreMark(mark); });
  for (Worker& w : workers_) {
    w.preserved_marks_.clear();
  }
  std::lock_guard<SpinLock> guard(shared_lock_);
  shared_preserved_.clear();
}

Object* EvacuationTask::MutatorHeal(Object* obj) {
  ROLP_DCHECK(concurrent_);
  return Evacuate(obj, nullptr);
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
