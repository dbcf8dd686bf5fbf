#include "src/gc/cms_collector.h"

#include "src/gc/mark_compact.h"
#include "src/util/clock.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/trace.h"

namespace rolp {

namespace {
constexpr int kMaxAllocationAttempts = 16;
constexpr size_t kConcurrentWorkPerRefill = 256 * 1024;  // bytes of marking per TLAB refill
}  // namespace

CmsCollector::CmsCollector(Heap* heap, const GcConfig& config, SafepointManager* safepoints)
    : Collector(heap, config, safepoints),
      bitmap_(heap->regions().heap_base(), heap->regions().committed_bytes()),
      marker_(heap, &bitmap_) {
  size_t total = heap->regions().num_regions();
  eden_target_ = config_.young_regions != 0
                     ? config_.young_regions
                     : static_cast<size_t>(static_cast<double>(total) *
                                           heap->config().young_fraction);
  if (eden_target_ < 1) {
    eden_target_ = 1;
  }
  heap->SetBarrierSet(std::make_unique<CmsBarrierSet>(&heap->regions(), this));
}

double CmsCollector::TenuredOccupancy() const {
  const RegionManager& regions = heap_->regions();
  return static_cast<double>(regions.tenured_regions()) /
         static_cast<double>(regions.num_regions());
}

char* CmsCollector::AllocateOld(size_t bytes, size_t* actual) {
  char* p = old_space_.Allocate(bytes, actual);
  if (p != nullptr) {
    return p;
  }
  // Pause-time promotion destination: may dip into the evacuation reserve.
  Region* fresh =
      heap_->regions().AllocateRegion(RegionKind::kOld, 0, /*gc_internal=*/true);
  if (fresh == nullptr) {
    return nullptr;
  }
  old_space_.AddRegion(fresh);
  return old_space_.Allocate(bytes, actual);
}

Region* CmsCollector::RefillTlab(MutatorContext* ctx) {
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    if (phase_.load(std::memory_order_relaxed) != Phase::kIdle) {
      ConcurrentWork(kConcurrentWorkPerRefill);
    }
    if (eden_in_use_.load(std::memory_order_relaxed) < eden_target_) {
      Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
      if (r != nullptr) {
        eden_in_use_.fetch_add(1, std::memory_order_relaxed);
        ctx->tlab.Release();
        ctx->tlab.Install(r);
        return r;
      }
      TryCollect(ctx, /*force_full=*/attempt >= 2);
      continue;
    }
    TryCollect(ctx, /*force_full=*/false);
  }
  return nullptr;
}

AllocResult CmsCollector::AllocateSlow(MutatorContext* ctx, const AllocRequest& req) {
  if (heap_->IsHumongousSize(req.total_bytes)) {
    int attempt = 0;
    for (; attempt < kMaxAllocationAttempts; attempt++) {
      Region* head = heap_->regions().AllocateHumongous(req.total_bytes);
      if (head != nullptr) {
        Object* obj = heap_->InitializeObject(head->begin(), req.cls, req.total_bytes,
                                              req.array_length, req.context);
        if (phase_.load(std::memory_order_relaxed) != Phase::kIdle) {
          bitmap_.Mark(obj);  // allocate black during a cycle
        }
        return AllocResult::Ok(obj, static_cast<uint8_t>(attempt));
      }
      if (!TryCollect(ctx, /*force_full=*/attempt >= 1)) {
        AllocationBackoff(attempt);
      }
    }
    return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
  }
  // CMS has no dynamic generations; every non-humongous allocation is young.
  int attempt = 0;
  for (; attempt < kMaxAllocationAttempts; attempt++) {
    char* mem = ctx->tlab.Allocate(req.total_bytes);
    if (mem != nullptr) {
      return AllocResult::Ok(heap_->InitializeObject(mem, req.cls, req.total_bytes,
                                                     req.array_length, req.context),
                             static_cast<uint8_t>(attempt));
    }
    if (RefillTlab(ctx) == nullptr) {
      return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
    }
  }
  return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt));
}

bool CmsCollector::TryCollect(MutatorContext* ctx, bool force_full) {
  if (!safepoints_->BeginOperation(ctx)) {
    return false;
  }
  if (force_full) {
    DoFull(NowNs());
  } else {
    DoYoung(ctx);
  }
  safepoints_->EndOperation(ctx);
  return true;
}

void CmsCollector::PreparePause() {
  safepoints_->ForEachThread([](MutatorContext* t) { t->tlab.Release(); });
  eden_in_use_.store(0, std::memory_order_relaxed);
}

void CmsCollector::DoYoung(MutatorContext* ctx) {
  uint64_t t0 = NowNs();
  PreparePause();
  RegionManager& regions = heap_->regions();
  bool cycle_active = phase_.load(std::memory_order_relaxed) != Phase::kIdle;

  std::vector<Region*> cset;
  const bool check_pinned = !regions.UnscannableQuarantined().empty();
  regions.ForEachRegion([&](Region* r) {
    if (r->IsYoung()) {
      if (check_pinned && regions.PinnedByQuarantine(r)) {
        // An unscannable quarantined region holds edges into this region that
        // the scavenge cannot discover; keep the region in place, and record
        // its outgoing edges (never recorded while young) so references into
        // this pause's collection set are discovered.
        regions.RetireToOld(r);
        r->set_live_bytes(r->used());
        RecordCrossRegionEdges(r);
        return;
      }
      r->set_in_cset(true);
      cset.push_back(r);
    }
  });

  // Single-threaded scavenge with the usual CAS-free forwarding (one worker).
  Region* survivor_buf = nullptr;
  std::vector<Object*> scan_stack;
  std::vector<std::pair<Object*, uint64_t>> preserved;  // self-forwarded marks
  bool failed = false;
  uint64_t copied = 0;
  uint64_t promoted = 0;
  bool survivor_tracking = profiler_ != nullptr && profiler_->SurvivorTrackingEnabled();

  auto evacuate = [&](Object* obj) -> Object* {
    uint64_t m = obj->LoadMark();
    if (markword::IsForwarded(m)) {
      return markword::ForwardedPtr(m);
    }
    uint32_t new_age = markword::Age(m) + 1;
    if (new_age > markword::kMaxAge) {
      new_age = markword::kMaxAge;
    }
    size_t size = obj->size_bytes;
    char* to = nullptr;
    size_t actual = size;
    bool promote = new_age >= config_.tenuring_threshold;
    if (!promote) {
      if (survivor_buf != nullptr) {
        to = survivor_buf->BumpAlloc(size);
      }
      if (to == nullptr) {
        survivor_buf =
            regions.AllocateRegion(RegionKind::kSurvivor, 0, /*gc_internal=*/true);
        to = survivor_buf != nullptr ? survivor_buf->BumpAlloc(size) : nullptr;
      }
      if (to == nullptr) {
        promote = true;  // no survivor space: tenure early
      }
    }
    if (promote && to == nullptr) {
      to = AllocateOld(size, &actual);
    }
    if (to == nullptr) {
      // Promotion failure (fragmentation or exhaustion): self-forward.
      preserved.emplace_back(obj, m);
      obj->StoreMark(markword::EncodeForwarded(obj));
      failed = true;
      scan_stack.push_back(obj);
      return obj;
    }
    std::memcpy(to, obj, size);
    Object* copy = reinterpret_cast<Object*>(to);
    copy->size_bytes = static_cast<uint32_t>(actual);  // may absorb a free sliver
    copy->StoreMark(markword::SetAge(m, new_age));
    obj->StoreMark(markword::EncodeForwarded(copy));
    copied += size;
    if (promote) {
      promoted += size;
    }
    if (cycle_active) {
      if (promote) {
        // Promoted objects enter the old space mid-cycle: gray them so the
        // marker marks them and traces their fields.
        marker_.BarrierPush(copy);
      } else if (bitmap_.IsMarked(obj)) {
        bitmap_.Mark(copy);
      }
    }
    if (survivor_tracking && profiler_ != nullptr) {
      profiler_->OnSurvivor(0, m);
    }
    scan_stack.push_back(copy);
    return copy;
  };

  auto process_slot = [&](std::atomic<Object*>* slot, Region* src_region) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    Region* vr = regions.RegionFor(v);
    if (vr->in_cset()) {
      v = evacuate(v);
      slot->store(v, std::memory_order_relaxed);
      vr = regions.RegionFor(v);
    }
    if (src_region != nullptr && vr != src_region &&
        !(src_region->IsYoung() && vr->IsYoung())) {
      vr->RemsetAddRegion(src_region->index());
    }
  };

  ForEachRootSlot(heap_->roots(), safepoints_,
                  [&](std::atomic<Object*>* slot) { process_slot(slot, nullptr); });
  // Remembered-set sources.
  std::vector<bool> seen(regions.num_regions(), false);
  for (Region* r : cset) {
    r->ForEachRemsetRegion([&](uint32_t idx) {
      if (seen[idx]) {
        return;
      }
      seen[idx] = true;
      Region* s = &regions.region(idx);
      if (s->IsFree() || s->in_cset() || s->kind() == RegionKind::kHumongousCont ||
          s->IsUnscannable()) {
        return;
      }
      s->ForEachObject([&](Object* obj) {
        heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { process_slot(slot, s); });
      });
    });
  }
  // Transitive closure.
  while (!scan_stack.empty()) {
    Object* obj = scan_stack.back();
    scan_stack.pop_back();
    Region* obj_region = regions.RegionFor(obj);
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { process_slot(slot, obj_region); });
  }

  // The concurrent cycle's worklists may reference moved objects.
  if (cycle_active) {
    marker_.RemapWorklists();
  }
  for (auto& [obj, mark] : preserved) {
    obj->StoreMark(mark);
  }
  std::vector<Region*> doomed;
  for (Region* r : cset) {
    bool has_failures = false;
    for (auto& [obj, mark] : preserved) {
      if (regions.RegionFor(obj) == r) {
        has_failures = true;
        break;
      }
    }
    if (has_failures) {
      r->set_in_cset(false);
      regions.RetireToOld(r);
      ScrubRetiredEvacFailure(r);
    } else {
      doomed.push_back(r);
    }
  }
  if (verify_options_.enabled() && !doomed.empty()) {
    // Post-evacuation check before the doomed regions' memory is recycled.
    // The scavenge is conservative (it evacuates everything reachable from
    // roots and remset sources, live or not), so no liveness filter applies:
    // any surviving reference into the collection set is a genuine miss.
    uint64_t v0 = NowNs();
    WorkerPool::PauseBracket bracket(workers_.get());
    CancellationToken verify_cancel;
    WatchdogPhaseScope vscope(watchdog_.get(), GcPhase::kVerify, &verify_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.verify");
    HeapVerifier verifier(heap_, safepoints_);
    HeapVerifier::Report report = verifier.VerifyCollectionSet(
        doomed, workers_.get(), verify_options_, NextVerifyPass(), &verify_cancel,
        /*live_filter=*/nullptr);
    if (ApplyVerification("cms-post-evacuation", report)) {
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

  metrics_.AddBytesCopied(copied);
  metrics_.AddBytesPromoted(promoted);
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kYoung, copied});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kYoung));
  if (profiler_ != nullptr) {
    profiler_->OnGcEnd({metrics_.GcCycles(), t1 - t0, PauseKind::kYoung});
  }

  if (failed) {
    ROLP_LOG_INFO("cms promotion failure; full compaction");
    DoFull(NowNs());
    return;
  }

  // Concurrent-cycle transitions (still inside the pause).
  Phase phase = phase_.load(std::memory_order_relaxed);
  if (phase == Phase::kIdle && TenuredOccupancy() >= config_.cms_trigger_occupancy) {
    MaybeStartCycleLocked();
  } else if (phase == Phase::kSweepPending) {
    RemarkAndSweep(NowNs());
  }
}

void CmsCollector::MaybeStartCycleLocked() {
  // Initial mark, piggybacked on the young pause.
  marker_.Start(safepoints_);
  phase_.store(Phase::kMarking, std::memory_order_release);
}

void CmsCollector::ConcurrentWork(size_t budget_bytes) {
  uint64_t t0 = NowNs();
  if (marker_.Step(budget_bytes)) {
    // Tentatively done; the remark pause will confirm.
    Phase expected = Phase::kMarking;
    phase_.compare_exchange_strong(expected, Phase::kSweepPending, std::memory_order_acq_rel);
  }
  metrics_.AddConcurrentWorkNs(NowNs() - t0);
}

void CmsCollector::RemarkAndSweep(uint64_t t0) {
  marker_.Remark(safepoints_);

  // Sweep: rebuild the free lists from the marks; fully dead regions are
  // returned whole.
  RegionManager& regions = heap_->regions();
  old_space_.Clear();
  std::vector<Region*> to_free;
  regions.ForEachRegion([&](Region* r) {
    if (r->quarantined()) {
      return;  // pinned: never swept, freed, or free-listed
    }
    if (r->kind() == RegionKind::kHumongous) {
      Object* head = reinterpret_cast<Object*>(r->begin());
      if (!bitmap_.IsMarked(head)) {
        to_free.push_back(r);
      }
      return;
    }
    if (r->kind() != RegionKind::kOld) {
      return;
    }
    bool any_live = false;
    char* run_start = nullptr;
    std::vector<std::pair<char*, size_t>> runs;
    char* p = r->begin();
    char* top = r->top();
    while (p < top) {
      Object* obj = reinterpret_cast<Object*>(p);
      size_t size = obj->size_bytes;
      bool live = obj->class_id != kFreeBlockClassId && bitmap_.IsMarked(obj);
      if (live) {
        any_live = true;
        if (run_start != nullptr) {
          runs.emplace_back(run_start, static_cast<size_t>(p - run_start));
          run_start = nullptr;
        }
      } else if (run_start == nullptr) {
        run_start = p;
      }
      p += size;
    }
    if (run_start != nullptr) {
      runs.emplace_back(run_start, static_cast<size_t>(p - run_start));
    }
    // The tail beyond top (only possible for former bump regions converted to
    // old after an evacuation failure) stays unusable until a full GC.
    if (!any_live) {
      to_free.push_back(r);
      return;
    }
    for (auto& [start, bytes] : runs) {
      if (bytes >= FreeListSpace::kMinBlock) {
        old_space_.AddFreeBlock(start, bytes);
      } else if (bytes > 0) {
        // Sliver: format it so walks stay valid, but do not link it.
        FreeListSpace::FormatFreeBlock(start, bytes);
      }
    }
  });
  for (Region* r : to_free) {
    bitmap_.ClearRange(r->begin(),
                       r->kind() == RegionKind::kHumongous
                           ? r->begin() + static_cast<size_t>(r->humongous_span()) *
                                              regions.region_bytes()
                           : r->end());
    regions.FreeRegion(r);
  }
  phase_.store(Phase::kIdle, std::memory_order_release);
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kCmsRemark, 0});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kCmsRemark));
  metrics_.IncrementGcCycles();
  if (profiler_ != nullptr) {
    profiler_->OnGcEnd({metrics_.GcCycles(), t1 - t0, PauseKind::kCmsRemark});
  }
}

void CmsCollector::DoFull(uint64_t t0) {
  // Compaction and verification are CMS's only pause work on the workers;
  // the scavenge and remark run on the pause thread.
  WorkerPool::PauseBracket bracket(workers_.get());
  PreparePause();
  // Abandon any in-flight concurrent cycle; compaction recomputes liveness.
  marker_.Abandon();
  phase_.store(Phase::kIdle, std::memory_order_relaxed);
  old_space_.Clear();

  MarkCompact compactor(heap_, &bitmap_);
  uint64_t moved;
  {
    // Non-cancellable STW fallback; the watchdog times it and aborts on
    // repeated overruns (escalation ladder rung 5).
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kCompact, nullptr, &metrics_);
    (void)ROLP_FAULT_POINT("gc.phase.compact.stall");
    moved = compactor.Collect(safepoints_, workers_.get());
  }
  full_gcs_.fetch_add(1, std::memory_order_relaxed);
  metrics_.AddBytesCopied(moved);
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kFull, moved});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kFull));
  if (profiler_ != nullptr) {
    profiler_->OnGcEnd({metrics_.GcCycles(), t1 - t0, PauseKind::kFull});
  }
}

void CmsCollector::CollectFull(MutatorContext* ctx) {
  while (!safepoints_->BeginOperation(ctx)) {
  }
  DoFull(NowNs());
  safepoints_->EndOperation(ctx);
}

}  // namespace rolp
