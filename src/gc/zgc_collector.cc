#include "src/gc/zgc_collector.h"

#include <mutex>

#include "src/gc/mark_compact.h"
#include "src/util/clock.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/trace.h"

namespace rolp {

namespace {
constexpr int kMaxAllocationAttempts = 32;
}  // namespace

ZgcCollector::ZgcCollector(Heap* heap, const GcConfig& config, SafepointManager* safepoints)
    : Collector(heap, config, safepoints),
      bitmap_(heap->regions().heap_base(), heap->regions().committed_bytes()),
      marker_(heap, &bitmap_) {
  heap->SetBarrierSet(std::make_unique<ZBarrierSet>(this));
}

double ZgcCollector::Occupancy() const {
  RegionManager& regions = const_cast<Heap*>(heap_)->regions();
  return 1.0 - static_cast<double>(regions.free_regions()) /
                   static_cast<double>(regions.num_regions());
}

char* ZgcCollector::AllocToSpace(size_t bytes) {
  std::lock_guard<SpinLock> guard(to_space_lock_);
  if (to_space_region_ != nullptr) {
    char* p = to_space_region_->AtomicBumpAlloc(bytes);
    if (p != nullptr) {
      return p;
    }
  }
  // Relocation destination: may dip into the evacuation reserve.
  Region* fresh =
      heap_->regions().AllocateRegion(RegionKind::kOld, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  to_space_region_ = fresh;
  return fresh->AtomicBumpAlloc(bytes);
}

Object* ZgcCollector::Relocate(Object* obj, bool* copied_here) {
  while (true) {
    uint64_t m = obj->mark.load(std::memory_order_acquire);
    if (markword::IsForwarded(m)) {
      return markword::ForwardedPtr(m);
    }
    size_t size = obj->size_bytes;
    char* to = AllocToSpace(size);
    if (to == nullptr) {
      // Relocation stall: leave the object in place; FinishCycle will keep
      // its region alive.
      return obj;
    }
    CopyObjectWords(to, obj, size);
    Object* copy = reinterpret_cast<Object*>(to);
    copy->StoreMark(m);
    if (obj->mark.compare_exchange_strong(m, markword::EncodeForwarded(copy),
                                          std::memory_order_acq_rel)) {
      relocated_bytes_.fetch_add(size, std::memory_order_relaxed);
      metrics_.AddBytesCopied(size);
      if (copied_here != nullptr) {
        *copied_here = true;
      }
      return copy;
    }
    // Lost the race. The shared bump cannot be retreated, so the duplicate
    // becomes a free block, as in EvacuationTask::MutatorHeal: no
    // live-looking object with slots into the relocation set is left behind.
    ScrubToFreeBlock(copy);
  }
}

Object* ZgcCollector::LoadBarrier(std::atomic<Object*>* slot) {
  Object* v = slot->load(std::memory_order_acquire);
  if (v == nullptr) {
    return nullptr;
  }
  Phase phase = phase_.load(std::memory_order_acquire);
  if (phase == Phase::kRelocating || phase == Phase::kRemapping) {
    Region* r = heap_->regions().RegionFor(v);
    if (r->in_cset()) {
      Object* healed = Relocate(v);
      if (healed != v) {
        if (slot->compare_exchange_strong(v, healed, std::memory_order_acq_rel)) {
          barrier_healed_slots_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return healed;
    }
  }
  return v;
}

Region* ZgcCollector::RefillTlab(MutatorContext* ctx) {
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    Phase phase = phase_.load(std::memory_order_relaxed);
    if (phase != Phase::kIdle) {
      // Pacing: marking/relocation/remap progress proportional to allocation.
      ConcurrentWork(ctx, static_cast<size_t>(config_.z_work_per_alloc_byte *
                                              static_cast<double>(
                                                  heap_->regions().region_bytes())));
    } else if (Occupancy() >= config_.z_trigger_occupancy) {
      StartCycle(ctx);
    }
    Region* r = heap_->regions().AllocateRegion(RegionKind::kOld);
    if (r != nullptr) {
      ctx->tlab.Release();
      ctx->tlab.Install(r);
      heap_->UpdateMaxUsedBytes();
      return r;
    }
    if (phase_.load(std::memory_order_relaxed) == Phase::kIdle) {
      // Out of memory with no cycle to wait for: allocation-stall fallback.
      DoFull(ctx);
    }
    // Otherwise loop: each iteration pushes the concurrent cycle forward.
  }
  return nullptr;
}

AllocResult ZgcCollector::AllocateSlow(MutatorContext* ctx, const AllocRequest& req) {
  if (heap_->IsHumongousSize(req.total_bytes)) {
    int attempt = 0;
    for (; attempt < kMaxAllocationAttempts; attempt++) {
      Region* head = heap_->regions().AllocateHumongous(req.total_bytes);
      if (head != nullptr) {
        Object* obj = heap_->InitializeObject(head->begin(), req.cls, req.total_bytes,
                                              req.array_length, req.context);
        if (phase_.load(std::memory_order_relaxed) == Phase::kMarking) {
          bitmap_.Mark(obj);
        }
        return AllocResult::Ok(obj, static_cast<uint8_t>(attempt));
      }
      if (phase_.load(std::memory_order_relaxed) != Phase::kIdle) {
        ConcurrentWork(ctx, heap_->regions().region_bytes() * 4);
      } else {
        DoFull(ctx);
      }
      AllocationBackoff(attempt);
    }
    return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
  }
  int attempt = 0;
  for (; attempt < kMaxAllocationAttempts; attempt++) {
    char* mem = ctx->tlab.Allocate(req.total_bytes);
    if (mem != nullptr) {
      Object* obj =
          heap_->InitializeObject(mem, req.cls, req.total_bytes, req.array_length, req.context);
      if (phase_.load(std::memory_order_relaxed) == Phase::kMarking) {
        bitmap_.Mark(obj);  // allocate black during marking
      }
      return AllocResult::Ok(obj, static_cast<uint8_t>(attempt));
    }
    if (RefillTlab(ctx) == nullptr) {
      return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
    }
  }
  return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
}

bool ZgcCollector::StartCycle(MutatorContext* ctx) {
  if (!safepoints_->BeginOperation(ctx)) {
    return false;
  }
  if (phase_.load(std::memory_order_relaxed) != Phase::kIdle) {
    safepoints_->EndOperation(ctx);
    return false;
  }
  uint64_t t0 = NowNs();
  marker_.Start(safepoints_);
  phase_.store(Phase::kMarking, std::memory_order_release);
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kZMark, 0});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kZMark));
  metrics_.IncrementGcCycles();
  safepoints_->EndOperation(ctx);
  return true;
}

void ZgcCollector::ConcurrentWork(MutatorContext* ctx, size_t budget_bytes) {
  // Relocation shards by per-region claim CAS, so every caller helps in
  // parallel. Mark slices serialize inside the marker, remap slices behind
  // work_lock_ (shared remap cursor).
  Phase phase = phase_.load(std::memory_order_acquire);
  if (phase == Phase::kRelocating) {
    uint64_t r0 = NowNs();
    RelocateSlice(budget_bytes);
    metrics_.AddConcurrentWorkNs(NowNs() - r0);
    return;
  }
  if (phase == Phase::kMarking) {
    uint64_t m0 = NowNs();
    bool drained = marker_.Step(budget_bytes);
    metrics_.AddConcurrentWorkNs(NowNs() - m0);
    if (drained) {
      RemarkAndSelect(ctx);
    }
    return;
  }
  // Only STW pauses move the phase out of kRemapping, and this thread does
  // not park before it is done here.
  if (phase != Phase::kRemapping || !work_lock_.try_lock()) {
    return;
  }
  uint64_t t0 = NowNs();
  RemapSlice(budget_bytes);
  bool remapped = remap_cursor_ >= remap_snapshot_.size();
  metrics_.AddConcurrentWorkNs(NowNs() - t0);
  work_lock_.unlock();
  if (remapped) {
    FinishCycle(ctx);
  }
}

bool ZgcCollector::RemarkAndSelect(MutatorContext* ctx) {
  if (!safepoints_->BeginOperation(ctx)) {
    return false;
  }
  if (phase_.load(std::memory_order_relaxed) != Phase::kMarking) {
    safepoints_->EndOperation(ctx);
    return false;
  }
  uint64_t t0 = NowNs();
  marker_.Remark(safepoints_);

  RegionManager& regions = heap_->regions();
  // Reclaim dead humongous objects.
  std::vector<Region*> dead_humongous;
  regions.ForEachRegion([&](Region* r) {
    if (r->kind() == RegionKind::kHumongous && !r->quarantined() &&
        !bitmap_.IsMarked(reinterpret_cast<Object*>(r->begin()))) {
      dead_humongous.push_back(r);
    }
  });
  for (Region* r : dead_humongous) {
    bitmap_.ClearRange(r->begin(), r->begin() + static_cast<size_t>(r->humongous_span()) *
                                                    regions.region_bytes());
    regions.FreeRegion(r);
  }

  // Select the relocation set: sparse regions, excluding allocation buffers.
  relocation_set_.clear();
  std::vector<Region*> excluded;
  safepoints_->ForEachThread([&](MutatorContext* t) {
    if (t->tlab.HasRegion()) {
      excluded.push_back(t->tlab.region());
    }
  });
  {
    std::lock_guard<SpinLock> guard(to_space_lock_);
    if (to_space_region_ != nullptr) {
      excluded.push_back(to_space_region_);
    }
  }
  const bool check_pinned = !regions.UnscannableQuarantined().empty();
  regions.ForEachRegion([&](Region* r) {
    if (r->kind() != RegionKind::kOld || r->used() == 0 || r->quarantined()) {
      return;
    }
    if (r->LiveRatio() > config_.z_relocate_live_ratio_max) {
      return;
    }
    if (check_pinned && regions.PinnedByQuarantine(r)) {
      // Referenced from an unscannable quarantined region, which the GC-side
      // remap walk skips: a stale reference held there would never be healed
      // before the forwarding tables are dropped at cycle end. Keep it put.
      return;
    }
    for (Region* ex : excluded) {
      if (ex == r) {
        return;
      }
    }
    relocation_set_.push_back(r);
  });
  // Cap the set so to-space demand stays within free memory.
  size_t free_bytes = regions.free_regions() * regions.region_bytes();
  size_t budget = free_bytes / 2;
  size_t planned = 0;
  size_t keep = 0;
  for (Region* r : relocation_set_) {
    if (planned + r->live_bytes() > budget) {
      break;
    }
    planned += r->live_bytes();
    keep++;
  }
  relocation_set_.resize(keep);

  for (Region* r : relocation_set_) {
    r->set_in_cset(true);
  }
  relocate_claim_.store(0, std::memory_order_relaxed);
  relocate_done_.store(0, std::memory_order_relaxed);
  remap_cursor_ = 0;
  // Freeze allocation buffers: regions created from here on are remapped in
  // the final pause instead of concurrently (see remap_snapshot_).
  safepoints_->ForEachThread([](MutatorContext* t) { t->tlab.Release(); });
  {
    std::lock_guard<SpinLock> guard(to_space_lock_);
    to_space_region_ = nullptr;
  }
  remap_snapshot_.clear();
  regions.ForEachRegion([&](Region* r) {
    if (!r->IsFree() && !r->in_cset() && r->kind() != RegionKind::kHumongousCont &&
        !r->IsUnscannable()) {
      remap_snapshot_.push_back(r->index());
    }
  });

  if (relocation_set_.empty()) {
    phase_.store(Phase::kIdle, std::memory_order_release);
    cycles_completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    phase_.store(Phase::kRelocating, std::memory_order_release);
    // Eager root healing: after this pause no mutator-visible reference may
    // point at a not-yet-relocated collection-set object.
    auto heal_root = [&](std::atomic<Object*>* slot) {
      Object* v = slot->load(std::memory_order_relaxed);
      if (v == nullptr) {
        return;
      }
      if (regions.RegionFor(v)->in_cset()) {
        slot->store(Relocate(v), std::memory_order_relaxed);
      }
    };
    ForEachRootSlot(heap_->roots(), safepoints_, heal_root);
  }

  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kZRemark, 0});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kZRemark));
  metrics_.IncrementGcCycles();
  safepoints_->EndOperation(ctx);
  return true;
}

void ZgcCollector::RelocateSlice(size_t budget_bytes) {
  // Sharded: claim a region, relocate it end to end, repeat until the byte
  // budget runs out. Claim granularity is a whole region — acceptable because
  // the relocation set only admits sparse regions (live ratio capped), so a
  // single claim stays small. The claimant never abandons a region mid-way,
  // which keeps the done counter's meaning simple: done == size(set) iff
  // every live object had Relocate() attempted on it.
  const size_t n = relocation_set_.size();
  size_t done = 0;
  while (done < budget_bytes) {
    size_t idx = relocate_claim_.fetch_add(1, std::memory_order_acq_rel);
    if (idx >= n) {
      return;  // all regions claimed; stragglers are finishing them
    }
    Region* r = relocation_set_[idx];
    char* scan = r->begin();
    char* top = r->top();
    while (scan < top) {
      Object* obj = reinterpret_cast<Object*>(scan);
      scan += obj->size_bytes;
      done += obj->size_bytes;
      if (bitmap_.IsMarked(obj)) {
        bool copied = false;
        Relocate(obj, &copied);
        if (copied) {
          gc_relocated_objects_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (relocate_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Last region retired: advance the phase exactly once. CAS guards
      // against a concurrent DoFull having already reset the cycle.
      Phase expected = Phase::kRelocating;
      phase_.compare_exchange_strong(expected, Phase::kRemapping,
                                     std::memory_order_acq_rel);
    }
  }
}

void ZgcCollector::RemapSlice(size_t budget_bytes) {
  RegionManager& regions = heap_->regions();
  size_t done = 0;
  while (done < budget_bytes && remap_cursor_ < remap_snapshot_.size()) {
    Region* r = &regions.region(remap_snapshot_[remap_cursor_]);
    remap_cursor_++;
    if (r->IsFree() || r->in_cset() || r->kind() == RegionKind::kHumongousCont ||
        r->IsUnscannable()) {
      continue;
    }
    r->ForEachObject([&](Object* obj) {
      done += obj->size_bytes;
      if (!bitmap_.IsMarked(obj)) {
        return;  // dead (or freshly allocated, which never holds stale refs)
      }
      heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
        Object* v = slot->load(std::memory_order_relaxed);
        if (v == nullptr) {
          return;
        }
        if (regions.RegionFor(v)->in_cset()) {
          Object* healed = Relocate(v);
          slot->compare_exchange_strong(v, healed, std::memory_order_acq_rel);
        }
      });
    });
  }
}

void ZgcCollector::FinishCycle(MutatorContext* ctx) {
  if (!safepoints_->BeginOperation(ctx)) {
    return;
  }
  if (phase_.load(std::memory_order_relaxed) != Phase::kRemapping) {
    safepoints_->EndOperation(ctx);
    return;
  }
  uint64_t t0 = NowNs();
  RegionManager& regions = heap_->regions();
  // Remap regions created after the relocate-start pause (fresh TLABs and
  // to-space); their tops are stable now that the world is stopped. Objects
  // in them may still hold references copied verbatim from the collection
  // set.
  std::vector<bool> in_snapshot(regions.num_regions(), false);
  for (uint32_t idx : remap_snapshot_) {
    in_snapshot[idx] = true;
  }
  regions.ForEachRegion([&](Region* r) {
    if (r->IsFree() || r->in_cset() || in_snapshot[r->index()] ||
        r->kind() == RegionKind::kHumongousCont || r->IsUnscannable()) {
      return;
    }
    r->ForEachObject([&](Object* obj) {
      heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
        Object* v = slot->load(std::memory_order_relaxed);
        if (v != nullptr && regions.RegionFor(v)->in_cset()) {
          slot->store(Relocate(v), std::memory_order_relaxed);
        }
      });
    });
  });
  // Heal roots one final time (cheap; usually no-ops).
  auto heal_root = [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v != nullptr && regions.RegionFor(v)->in_cset()) {
      slot->store(Relocate(v), std::memory_order_relaxed);
    }
  };
  ForEachRootSlot(heap_->roots(), safepoints_, heal_root);

  std::vector<Region*> doomed;
  for (Region* r : relocation_set_) {
    bool fully_evacuated = true;
    r->ForEachObject([&](Object* obj) {
      if (bitmap_.IsMarked(obj) && !markword::IsForwarded(obj->LoadMark())) {
        // Relocation stall left it behind; try once more.
        Object* moved = Relocate(obj);
        if (moved == obj) {
          fully_evacuated = false;
        }
      }
    });
    if (fully_evacuated) {
      doomed.push_back(r);
    } else {
      r->set_in_cset(false);  // stays as a normal old region
    }
  }
  if (verify_options_.enabled() && !doomed.empty()) {
    uint64_t v0 = NowNs();
    WorkerPool::PauseBracket bracket(workers_.get());
    CancellationToken verify_cancel;
    WatchdogPhaseScope vscope(watchdog_.get(), GcPhase::kVerify, &verify_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.verify");
    // ZGC keeps no remembered sets, and Relocate copies marks verbatim so
    // to-space copies are unmarked at their new addresses. Restrict the sweep
    // to marked objects: unmarked ones are either dead or already-healed
    // copies (lost-race duplicates are free blocks, which the sweep skips).
    HeapVerifier verifier(heap_, safepoints_, /*check_remsets=*/false);
    HeapVerifier::Report report = verifier.VerifyCollectionSet(
        doomed, workers_.get(), verify_options_, NextVerifyPass(), &verify_cancel,
        /*live_filter=*/&bitmap_);
    if (ApplyVerification("z-relocate-finish", report)) {
      QuarantineFlagged(&verifier, doomed, &report);
    }
    metrics_.AddPauseVerifyNs(NowNs() - v0);
  }
  for (Region* r : doomed) {
    if (r->quarantined()) {
      continue;
    }
    bitmap_.ClearRange(r->begin(), r->end());
    regions.FreeRegion(r);
  }
  relocation_set_.clear();
  phase_.store(Phase::kIdle, std::memory_order_release);
  cycles_completed_.fetch_add(1, std::memory_order_relaxed);
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kZRelocateStart, 0});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kZRelocateStart));
  metrics_.IncrementGcCycles();
  safepoints_->EndOperation(ctx);
}

void ZgcCollector::DoFull(MutatorContext* ctx) {
  if (!safepoints_->BeginOperation(ctx)) {
    return;
  }
  uint64_t t0 = NowNs();
  safepoints_->ForEachThread([](MutatorContext* t) { t->tlab.Release(); });
  marker_.Abandon();
  for (Region* r : relocation_set_) {
    r->set_in_cset(false);
  }
  relocation_set_.clear();
  {
    std::lock_guard<SpinLock> guard(to_space_lock_);
    to_space_region_ = nullptr;
  }
  phase_.store(Phase::kIdle, std::memory_order_release);

  MarkCompact compactor(heap_, &bitmap_);
  uint64_t moved;
  {
    // ZGC's concurrent mark/relocate phases are mutator-paced increments and
    // are not watchdog-timed; only the STW compaction fallback is (rung 5).
    // Compaction and verification are ZGC's only pause work on the workers.
    WorkerPool::PauseBracket bracket(workers_.get());
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kCompact, nullptr, &metrics_);
    (void)ROLP_FAULT_POINT("gc.phase.compact.stall");
    moved = compactor.Collect(safepoints_, workers_.get());
  }
  metrics_.AddBytesCopied(moved);
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kFull, moved});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kFull));
  safepoints_->EndOperation(ctx);
}

void ZgcCollector::CollectFull(MutatorContext* ctx) {
  // Finish any in-flight cycle deterministically, then compact.
  for (int i = 0; i < 1000 && phase_.load(std::memory_order_relaxed) != Phase::kIdle; i++) {
    ConcurrentWork(ctx, SIZE_MAX / 4);
  }
  DoFull(ctx);
}

}  // namespace rolp
