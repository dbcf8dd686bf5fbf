#include "src/gc/cms_collector.h"

#include "src/gc/evacuation.h"
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
  {
    // Opened before PreparePause so the workers' one wake-up overlaps it.
    WorkerPool::PauseBracket bracket(workers_.get());
    if (force_full) {
      DoFull(NowNs());
    } else {
      DoYoung(ctx);
    }
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

  std::vector<Region*> remset_sources;
  std::vector<std::atomic<Object*>*> roots;
  {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kScan, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.scan");
    remset_sources = RemsetSources(cset);
    ForEachRootSlot(heap_->roots(), safepoints_,
                    [&](std::atomic<Object*>* slot) { roots.push_back(slot); });
  }
  uint64_t evac_t0 = NowNs();
  metrics_.AddPauseScanNs(evac_t0 - t0);

  // The parallel copy engine, with CMS's policy: promotions go to the
  // free-list old space, and a running concurrent mark keeps its invariants.
  // The scavenge is conservative: every object of a remset source is scanned.
  CancellationToken evac_cancel;
  EvacuationTask task(heap_, &config_, profiler_,
                      profiler_ != nullptr && profiler_->SurvivorTrackingEnabled(),
                      workers_->size(), &evac_cancel);
  task.set_old_space(&old_space_);
  if (cycle_active) {
    task.set_marker(&marker_);
  }
  {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kEvacuate, &evac_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.evacuate");
    EvacuationUnits units;
    units.roots = roots;
    units.sources = remset_sources;
    units.stall_point = "gc.phase.evacuate.stall";
    task.Run(workers_.get(), units);
  }
  // The concurrent cycle's worklists may reference moved objects.
  if (cycle_active) {
    marker_.RemapWorklists();
  }
  // No liveness filter for the post-evacuation check: the scavenge evacuates
  // everything reachable from roots and remset sources, live or not, so any
  // surviving reference into the collection set is a genuine miss.
  uint64_t copied = FinishEvacuation(&task, cset, evac_t0, "cms-post-evacuation",
                                     /*live_filter=*/nullptr, &bitmap_);
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  metrics_.RecordPause({t0, t1 - t0, PauseKind::kYoung, copied});
  Trace::EmitComplete("gc", "gc.pause", t0, t1 - t0,
                      static_cast<uint64_t>(PauseKind::kYoung));
  if (profiler_ != nullptr) {
    profiler_->OnGcEnd({metrics_.GcCycles(), t1 - t0, PauseKind::kYoung});
  }

  if (task.failed()) {
    if (evac_cancel.IsCancelled()) {
      ROLP_LOG_ERROR("cms scavenge cancelled by watchdog; full compaction");
    } else {
      ROLP_LOG_INFO("cms promotion failure; full compaction");
    }
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
  // The remark and the sweep run on the pause thread; the scavenge,
  // compaction and verification run on the workers.
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
