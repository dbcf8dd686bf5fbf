#include "src/gc/regional_collector.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gc/evacuation.h"
#include "src/gc/mark_compact.h"
#include "src/gc/marking.h"
#include "src/util/clock.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/trace.h"

namespace rolp {

namespace {
constexpr int kMaxAllocationAttempts = 16;
}  // namespace

// Everything one concurrent evacuation cycle owns, alive from the arming
// pause to the end of the final remap pause. Mutators reach it through
// HealSlot; the pointer itself only changes inside pauses, so no lock guards
// it (a mutator cannot be mid-heal across a pause — there is no safepoint
// poll inside the load barrier).
struct RegionalCollector::ConcurrentCycle {
  ConcurrentCycle(Heap* heap, const GcConfig* config, ProfilerHooks* profiler,
                  bool survivor_tracking, uint32_t num_workers)
      : task(heap, config, profiler, survivor_tracking, num_workers, &cancel) {
    task.set_concurrent(true);
  }

  CancellationToken cancel;  // must precede task (task holds a pointer to it)
  EvacuationTask task;
  std::vector<Region*> cset;
  std::vector<Region*> remset_sources;
  std::vector<Region*> scrub_list;
  bool mixed = false;
  bool trust_marks = false;
};

RegionalCollector::RegionalCollector(Heap* heap, const GcConfig& config,
                                     SafepointManager* safepoints)
    : Collector(heap, config, safepoints),
      dynamic_gens_(config.use_dynamic_gens),
      bitmap_(heap->regions().heap_base(), heap->regions().committed_bytes()) {
  if (config.concurrent_evac) {
    // Installed before mutators start; loads stay on the fast path until a
    // cycle arms (needs_load_barrier() is false while disarmed).
    heap->SetBarrierSet(std::make_unique<RegionalBarrierSet>(&heap->regions(), this));
  }
  size_t total = heap->regions().num_regions();
  eden_target_ = config_.young_regions != 0
                     ? config_.young_regions
                     : static_cast<size_t>(static_cast<double>(total) *
                                           heap->config().young_fraction);
  if (eden_target_ < 1) {
    eden_target_ = 1;
  }
  if (eden_target_ > total / 2) {
    eden_target_ = total / 2;
  }
}

RegionalCollector::~RegionalCollector() {
  // The driver thread of the last cycle may still be running; it only needs
  // the mutators to quiesce (VM teardown unregisters them) to finish its
  // final pause.
  if (concurrent_thread_.joinable()) {
    concurrent_thread_.join();
  }
}

double RegionalCollector::TenuredOccupancy() const {
  const RegionManager& regions = heap_->regions();
  return static_cast<double>(regions.tenured_regions()) /
         static_cast<double>(regions.num_regions());
}

Region* RegionalCollector::RefillTlab(MutatorContext* ctx) {
  // Heap-pressure governor rung 1: trigger collection early (before the eden
  // budget is exhausted) when occupancy crosses the GC watermark, so tenured
  // garbage is reclaimed while there is still evacuation headroom.
  HeapGovernor& governor = heap_->governor();
  governor.Update();
  if (governor.TakeGcRequest(NowNs()) &&
      !concurrent_active_.load(std::memory_order_relaxed)) {
    // With a concurrent cycle already in flight, a collection is effectively
    // in progress — swallow the governor request rather than stalling this
    // allocator behind the cycle (the governor re-requests if pressure
    // persists).
    TryCollect(ctx, /*force_full=*/false);
  }
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    if (eden_in_use_.load(std::memory_order_relaxed) < eden_target_) {
      Region* r = heap_->regions().AllocateRegion(RegionKind::kEden);
      if (r != nullptr) {
        eden_in_use_.fetch_add(1, std::memory_order_relaxed);
        ctx->tlab.Release();
        ctx->tlab.Install(r);
        return r;
      }
      // Eden budget remains but the heap has no free regions: tenured data
      // has taken over. Try a (likely mixed) collection first; escalate to
      // full compaction if that was not enough.
      TryCollect(ctx, /*force_full=*/attempt >= 2);
      AllocationBackoff(attempt);
      continue;
    }
    TryCollect(ctx, /*force_full=*/false);
    AllocationBackoff(attempt);
  }
  return nullptr;
}

AllocResult RegionalCollector::AllocateSlow(MutatorContext* ctx, const AllocRequest& req) {
  if (heap_->IsHumongousSize(req.total_bytes)) {
    return AllocateHumongousObject(ctx, req);
  }
  if (req.target_gen != kYoungGen && dynamic_gens_) {
    return AllocatePretenured(ctx, req);
  }
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    char* mem = ctx->tlab.Allocate(req.total_bytes);
    if (mem != nullptr) {
      return AllocResult::Ok(heap_->InitializeObject(mem, req.cls, req.total_bytes,
                                                     req.array_length, req.context),
                             static_cast<uint8_t>(attempt));
    }
    if (RefillTlab(ctx) == nullptr) {
      return AllocResult::OutOfMemory(static_cast<uint8_t>(attempt + 1));
    }
  }
  return AllocResult::OutOfMemory(kMaxAllocationAttempts);
}

AllocResult RegionalCollector::AllocatePretenured(MutatorContext* ctx, const AllocRequest& req) {
  uint8_t g = req.target_gen;
  ROLP_DCHECK(g >= 1 && g <= kOldGenId);
  RegionKind kind = g == kOldGenId ? RegionKind::kOld : RegionKind::kGen;
  uint8_t gen_tag = g == kOldGenId ? 0 : g;
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    {
      std::lock_guard<SpinLock> guard(gen_lock_);
      Region* r = gen_current_[g];
      char* mem = r != nullptr ? r->BumpAlloc(req.total_bytes) : nullptr;
      if (mem == nullptr) {
        Region* fresh = heap_->regions().AllocateRegion(kind, gen_tag);
        if (fresh != nullptr) {
          gen_current_[g] = fresh;
          mem = fresh->BumpAlloc(req.total_bytes);
        }
      }
      if (mem != nullptr) {
        return AllocResult::Ok(heap_->InitializeObject(mem, req.cls, req.total_bytes,
                                                       req.array_length, req.context),
                               static_cast<uint8_t>(attempt));
      }
    }
    // No region available for this generation: collect and retry.
    TryCollect(ctx, attempt >= 2);
    AllocationBackoff(attempt);
  }
  return AllocResult::OutOfMemory(kMaxAllocationAttempts);
}

AllocResult RegionalCollector::AllocateHumongousObject(MutatorContext* ctx,
                                                       const AllocRequest& req) {
  for (int attempt = 0; attempt < kMaxAllocationAttempts; attempt++) {
    Region* head = heap_->regions().AllocateHumongous(req.total_bytes);
    if (head != nullptr) {
      return AllocResult::Ok(heap_->InitializeObject(head->begin(), req.cls, req.total_bytes,
                                                     req.array_length, req.context),
                             static_cast<uint8_t>(attempt));
    }
    // Humongous allocation needs contiguous free regions; full compaction is
    // the reliable way to produce them.
    TryCollect(ctx, /*force_full=*/attempt >= 1);
    AllocationBackoff(attempt);
  }
  return AllocResult::OutOfMemory(kMaxAllocationAttempts);
}

bool RegionalCollector::TryCollect(MutatorContext* ctx, bool force_full) {
  // A concurrent evacuation cycle is a collection in progress: wait for it to
  // retire (it frees the old eden / cset) instead of stacking a second cycle
  // on a cset that is still being copied.
  if (concurrent_active_.load(std::memory_order_acquire)) {
    WaitForConcurrentCycle(ctx);
    return true;
  }
  if (!safepoints_->BeginOperation(ctx)) {
    return false;  // someone else collected while we waited
  }
  if (concurrent_active_.load(std::memory_order_acquire)) {
    // Lost a race: another thread's pause armed a cycle between our check
    // and our winning the stopped world.
    safepoints_->EndOperation(ctx);
    WaitForConcurrentCycle(ctx);
    return true;
  }
  if (ROLP_FAULT_POINT("gc.collect.skip")) {
    // Simulated collection failure: the pause happens but nothing is freed.
    safepoints_->EndOperation(ctx);
    return true;
  }
  {
    // Opened before PreparePause so the workers' one wake-up overlaps it.
    WorkerPool::PauseBracket bracket(workers_.get());
    if (force_full) {
      DoFull(NowNs());
    } else {
      DoYoungOrMixed(ctx);
    }
  }
  safepoints_->EndOperation(ctx);
  return true;
}

void RegionalCollector::PreparePause() {
  safepoints_->ForEachThread([](MutatorContext* t) { t->tlab.Release(); });
  eden_in_use_.store(0, std::memory_order_relaxed);
  std::lock_guard<SpinLock> guard(gen_lock_);
  gen_current_.fill(nullptr);
}

void RegionalCollector::DoYoungOrMixed(MutatorContext* ctx) {
  uint64_t t0 = NowNs();
  PreparePause();
  RegionManager& regions = heap_->regions();

  bool mixed = TenuredOccupancy() >= config_.mixed_trigger_occupancy;
  uint64_t mark_ns = 0;
  if (mixed) {
    // Real G1/NG2C mark concurrently and pause only for short remark windows;
    // this reproduction marks inside the pause for simplicity but attributes
    // the marking time to concurrent work rather than to the reported pause,
    // matching what the JVM-side pause log (the paper's metric) would show.
    uint64_t mark_t0 = NowNs();
    Marker marker(heap_, &bitmap_);
    CancellationToken mark_cancel;
    {
      WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kMark, &mark_cancel, &metrics_);
      ROLP_TRACE_SCOPE("gc", "gc.phase.mark");
      marker.MarkFromRoots(safepoints_, workers_.get(), &mark_cancel);
    }
    if (marker.cancelled()) {
      // Marking overran its deadline: the bitmap and live counts are partial
      // and unusable. Fall back to the bounded STW cycle, which re-marks
      // from scratch.
      ROLP_LOG_ERROR("marking cancelled by watchdog; falling back to full collection");
      DoFull(NowNs());
      ReportOverrunToProfiler();
      return;
    }
    mark_ns = NowNs() - mark_t0;
    metrics_.AddConcurrentWorkNs(mark_ns);
  }

  // Post-mark verification: recount sampled regions' live bytes against the
  // bitmap and probe that roots were marked. A disagreement is repaired in
  // place, but it also means some part of the marking pipeline misbehaved —
  // stop trusting marks for cset selection and dead-object filtering this
  // pause (the collection degrades to young-only work).
  bool trust_marks = mixed;
  if (mixed && verify_options_.enabled()) {
    uint64_t verify_t0 = NowNs();
    CancellationToken verify_cancel;
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kVerify, &verify_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.verify");
    HeapVerifier verifier(heap_, safepoints_);
    HeapVerifier::Report report = verifier.VerifyPostMark(
        &bitmap_, workers_.get(), verify_options_, NextVerifyPass(), &verify_cancel);
    if (ApplyVerification("post-mark", report)) {
      for (const HeapVerifier::Finding& f : report.findings) {
        if (f.kind == HeapVerifier::Finding::Kind::kBadMark) {
          trust_marks = false;
          break;
        }
      }
    }
    metrics_.AddPauseVerifyNs(NowNs() - verify_t0);
  }

  // ---- Pause-side region scans (parallel) ---------------------------------
  // One fused sweep over the region table, sharded across the GC workers,
  // replaces four serial walks: per-generation fragmentation accounting,
  // dead-humongous discovery, young-cset collection, and mixed-cset candidate
  // gathering. Workers fill private partials; the reductions below run after
  // the ParallelFor barrier on the pause thread.
  std::vector<Region*> cset;
  std::vector<Region*> remset_sources;
  std::vector<Region*> scrub_list;
  const uint32_t n = workers_->size();
  {
    WatchdogPhaseScope scan_scope(watchdog_.get(), GcPhase::kScan, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.scan");
    struct ScanPartial {
      size_t used[kNumDynamicGens + 1] = {};
      size_t live[kNumDynamicGens + 1] = {};
      std::vector<Region*> young;
      std::vector<Region*> pinned_young;
      std::vector<Region*> candidates;
      std::vector<Region*> dead_humongous;
    };
    std::vector<ScanPartial> partials(n);
    const bool want_frag = mixed && dynamic_gens_ && profiler_ != nullptr;
    // Only unscannable quarantined regions can pin young regions (their
    // outgoing references can never be rescanned or healed).
    const bool check_pinned = !regions.UnscannableQuarantined().empty();
    workers_->ParallelFor(
        regions.num_regions(), StealChunkSize(), [&](uint32_t w, size_t begin, size_t end) {
          ScanPartial& p = partials[w];
          for (size_t i = begin; i < end; i++) {
            Region* r = &regions.region(i);
            if (r->IsYoung()) {
              if (check_pinned && regions.PinnedByQuarantine(r)) {
                p.pinned_young.push_back(r);
              } else {
                p.young.push_back(r);
              }
              continue;
            }
            if (!mixed) {
              continue;
            }
            RegionKind k = r->kind();
            // Fragmentation feedback input (paper section 6). Fully-dead
            // generation regions are the pretenuring success case (reclaimed
            // whole, zero copying), so fragmentation is measured only over
            // regions still pinned by live objects: a low ratio there means
            // objects died earlier than their generation and left sparse,
            // unreclaimable regions.
            if (want_frag && k == RegionKind::kGen && r->gen() >= 1 &&
                r->gen() <= kNumDynamicGens && r->live_bytes() > 0) {
              p.used[r->gen()] += r->used();
              p.live[r->gen()] += r->live_bytes();
            }
            if (r->quarantined()) {
              continue;  // pinned: never a cset candidate, never freed
            }
            if (k == RegionKind::kHumongous && r->live_bytes() == 0 && trust_marks) {
              p.dead_humongous.push_back(r);
              continue;
            }
            if (trust_marks && (k == RegionKind::kOld || k == RegionKind::kGen) &&
                r->used() > 0 && r->LiveRatio() <= config_.cset_live_ratio_max &&
                !(check_pinned && regions.PinnedByQuarantine(r))) {
              // Pinned-by-quarantine regions can never be evacuated: the
              // unscannable source holding edges into them is excluded from
              // the remset-source rescan, so those edges could not be healed.
              p.candidates.push_back(r);
            }
          }
        });
    if (want_frag) {
      size_t used[kNumDynamicGens + 1] = {};
      size_t live[kNumDynamicGens + 1] = {};
      for (ScanPartial& p : partials) {
        for (uint8_t g = 1; g <= kNumDynamicGens; g++) {
          used[g] += p.used[g];
          live[g] += p.live[g];
        }
      }
      for (uint8_t g = 1; g <= kNumDynamicGens; g++) {
        if (used[g] > 0) {
          profiler_->OnGenFragmentation(
              g, static_cast<double>(live[g]) / static_cast<double>(used[g]));
        }
      }
    }
    // Collection set: all young regions, plus (mixed) the emptiest tenured
    // regions. Dead humongous objects are reclaimed on the spot.
    std::vector<Region*> candidates;
    for (ScanPartial& p : partials) {
      for (Region* r : p.dead_humongous) {
        regions.FreeRegion(r);
      }
      for (Region* r : p.pinned_young) {
        // Referenced from an unscannable quarantined region: the reference
        // can never be healed, so the objects must stay put. Pin in place,
        // and record its outgoing edges (never recorded while young) so
        // references into this pause's collection set are discovered.
        regions.RetireToOld(r);
        r->set_live_bytes(r->used());
        RecordCrossRegionEdges(r);
      }
      cset.insert(cset.end(), p.young.begin(), p.young.end());
      candidates.insert(candidates.end(), p.candidates.begin(), p.candidates.end());
    }
    if (mixed) {
      // Tie-break on index: partial concatenation order depends on chunk
      // claiming, and the sort decides which candidates survive truncation.
      std::sort(candidates.begin(), candidates.end(), [](Region* a, Region* b) {
        return a->live_bytes() != b->live_bytes() ? a->live_bytes() < b->live_bytes()
                                                  : a->index() < b->index();
      });
      if (candidates.size() > config_.max_old_cset_regions) {
        candidates.resize(config_.max_old_cset_regions);
      }
      cset.insert(cset.end(), candidates.begin(), candidates.end());
    }
    if (config_.concurrent_evac && mixed && trust_marks) {
      // NG2C whole-region fast path (pretenuring payoff): a tenured cset
      // region with zero marked live bytes has nothing to copy and nothing
      // referencing it (marking is complete and trusted) — reclaim it right
      // here in the arming pause instead of dragging it through the
      // concurrent copy protocol.
      size_t kept = 0;
      for (Region* r : cset) {
        if (!r->IsYoung() && r->live_bytes() == 0) {
          regions.FreeRegion(r);
          whole_regions_reclaimed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          cset[kept++] = r;
        }
      }
      cset.resize(kept);
    }
    for (Region* r : cset) {
      r->set_in_cset(true);
    }

    // Scrub list: tenured regions surviving this precise cycle that hold dead
    // objects. The evacuation scan skips dead objects (marks are trusted), so
    // their stale references into regions this cycle frees would linger in
    // the parsable heap; scrubbing turns them into free blocks instead. Runs
    // off-pause in concurrent mode, in-pause for the STW baseline. Built here
    // — after the cset is final and pinned-young retirements have run — so
    // every listed region existed at mark time and stays put all cycle.
    if (mixed && trust_marks) {
      for (size_t i = 0; i < regions.num_regions(); i++) {
        Region* r = &regions.region(i);
        RegionKind k = r->kind();
        if ((k == RegionKind::kOld || k == RegionKind::kGen) && !r->in_cset() &&
            !r->quarantined() && r->live_bytes() < r->used() &&
            // Unmarked is not dead in a pinned region: the unscannable
            // quarantined region holding edges into it could not be marked
            // through, so its objects' liveness is unknown.
            !(check_pinned && regions.PinnedByQuarantine(r))) {
          scrub_list.push_back(r);
        }
      }
    }

    remset_sources = RemsetSources(cset);
  }

  // Roots.
  std::vector<std::atomic<Object*>*> roots;
  ForEachRootSlot(heap_->roots(), safepoints_,
                  [&](std::atomic<Object*>* slot) { roots.push_back(slot); });

  // Everything since pause start except marking was pause-side scanning
  // (occupancy, fragmentation, dead-humongous, cset selection, roots, remset
  // sources).
  uint64_t evac_t0 = NowNs();
  metrics_.AddPauseScanNs(evac_t0 - t0 - mark_ns);

  bool survivor_tracking_on =
      profiler_ != nullptr && profiler_->SurvivorTrackingEnabled();
  if (config_.concurrent_evac && !cset.empty()) {
    // Hand the copying off-pause: flag the cset, heal the roots, arm the
    // barrier, and return — TryCollect's EndOperation resumes the mutators
    // while the driver thread runs the copy workers.
    StartConcurrentEvacuation(std::move(cset), std::move(remset_sources),
                              std::move(scrub_list), std::move(roots), mixed, trust_marks,
                              survivor_tracking_on, t0, mark_ns, evac_t0);
    return;
  }

  // ---- Work-stealing evacuation (EvacuationTask::Run) --------------------
  // Scrub units ride in the same cursor: the scrubbed objects are dead, so
  // the rewrite races with no copy.
  CancellationToken evac_cancel;
  EvacuationTask task(heap_, &config_, profiler_, survivor_tracking_on, n, &evac_cancel);
  {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kEvacuate, &evac_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.evacuate");
    EvacuationUnits units;
    units.roots = roots;
    units.sources = remset_sources;
    units.scrub = scrub_list;
    units.marks = trust_marks ? &bitmap_ : nullptr;
    units.stall_point = "gc.phase.evacuate.stall";
    task.Run(workers_.get(), units);
  }
  uint64_t copied = FinishEvacuation(&task, cset, evac_t0, "post-evacuation",
                                     trust_marks ? &bitmap_ : nullptr, nullptr);
  RunSampledWalk("sampled-walk");
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();

  uint64_t t1 = NowNs();
  uint64_t pause_ns = t1 - t0 - mark_ns;
  if (ROLP_FAULT_POINT("gc.pause.inflate")) {
    pause_ns += 10 * 1000 * 1000;  // report +10ms (drives pause-regression heuristics)
  }
  PauseRecord rec{t0, pause_ns, mixed ? PauseKind::kMixed : PauseKind::kYoung, copied};
  metrics_.RecordPause(rec);
  Trace::EmitComplete("gc", "gc.pause", rec.start_ns, rec.duration_ns,
                      static_cast<uint64_t>(rec.kind));
  if (profiler_ != nullptr) {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kProfilerMerge, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.profiler-merge");
    uint64_t prof_t0 = NowNs();
    profiler_->OnGcEnd({metrics_.GcCycles(), rec.duration_ns, rec.kind, workers_.get()});
    metrics_.AddPauseProfilerNs(NowNs() - prof_t0);
  }

  if (task.failed()) {
    if (evac_cancel.IsCancelled()) {
      ROLP_LOG_ERROR("evacuation cancelled by watchdog; falling back to full collection");
    } else {
      ROLP_LOG_INFO("evacuation failure; escalating to full collection");
    }
    DoFull(NowNs());
  }
  ReportOverrunToProfiler();
}

void RegionalCollector::StartConcurrentEvacuation(std::vector<Region*> cset,
                                                  std::vector<Region*> remset_sources,
                                                  std::vector<Region*> scrub_list,
                                                  std::vector<std::atomic<Object*>*> roots,
                                                  bool mixed, bool trust_marks,
                                                  bool survivor_tracking, uint64_t t0,
                                                  uint64_t mark_ns, uint64_t evac_t0) {
  // The previous cycle's driver has long retired (a new pause cannot start
  // while one is active); reap its thread.
  if (concurrent_thread_.joinable()) {
    concurrent_thread_.join();
  }
  const uint32_t n = workers_->size();
  cycle_ = std::make_unique<ConcurrentCycle>(heap_, &config_, profiler_, survivor_tracking, n);
  ConcurrentCycle& c = *cycle_;
  c.cset = std::move(cset);
  c.remset_sources = std::move(remset_sources);
  c.scrub_list = std::move(scrub_list);
  c.mixed = mixed;
  c.trust_marks = trust_marks;
  for (Region* r : c.cset) {
    r->set_evacuating(true);
  }
  {
    // Eager root healing (to-space invariant): after this no root holds a
    // from-space cset pointer, so a mutator can only ever meet one through a
    // heap slot — which its load barrier heals. The copies wait on worker
    // 0's deque for the off-pause workers to scan.
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kEvacuate, &c.cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.evacuate");
    c.task.HealRoots(roots);
  }

  evac_armed_.store(true, std::memory_order_release);
  heap_->RefreshBarrierMode();
  concurrent_active_.store(true, std::memory_order_release);

  metrics_.AddPauseEvacNs(NowNs() - evac_t0);
  uint64_t t1 = NowNs();
  uint64_t pause_ns = t1 - t0 - mark_ns;
  if (ROLP_FAULT_POINT("gc.pause.inflate")) {
    pause_ns += 10 * 1000 * 1000;  // report +10ms (drives pause-regression heuristics)
  }
  PauseRecord rec{t0, pause_ns, c.mixed ? PauseKind::kMixed : PauseKind::kYoung,
                  /*bytes_copied=*/0};
  metrics_.RecordPause(rec);
  Trace::EmitComplete("gc", "gc.pause", rec.start_ns, rec.duration_ns,
                      static_cast<uint64_t>(rec.kind));

  concurrent_thread_ = std::thread([this] { ConcurrentDriver(); });
}

void RegionalCollector::ConcurrentDriver() {
  // The driver registers as a mutator so it can run the final pause through
  // the standard safepoint protocol. It was started inside the arming pause,
  // so registration returns only once that pause ends. No pause waits for the
  // driver meanwhile: while concurrent_active_ is set, TryCollect and
  // CollectFull wait for the cycle outside an operation or end theirs at once.
  MutatorContext dctx;
  dctx.thread_id = 0xFFFFFFFFu;
  safepoints_->RegisterThread(&dctx);
  ConcurrentCycle& c = *cycle_;
  if (ROLP_FAULT_POINT("gc.concurrent_evac.cancel")) {
    c.cancel.Cancel();  // chaos: the cycle self-forwards everything it meets
  }
  {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kConcurrentEvac, &c.cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.concurrent-evac");
    // Remset-source walks are safe off-pause: mutators only allocate into
    // regions that were free at the arming pause, which are never sources.
    // Mutator-injected items are drained with the deques.
    EvacuationUnits units;
    units.sources = c.remset_sources;
    units.scrub = c.scrub_list;
    units.marks = c.trust_marks ? &bitmap_ : nullptr;
    units.stall_point = "gc.concurrent_evac.stall";
    WorkerCpuSink evac_cpu;
    c.task.Run(workers_.get(), units);
    metrics_.AddEvacCpuNs(evac_cpu.ns());
  }
  // Final remap pause. BeginOperation returning false means another
  // mutator's operation ran first — but the TryCollect/CollectFull guards
  // make any such operation a no-op while the cycle is active, so retrying
  // always converges.
  while (!safepoints_->BeginOperation(&dctx)) {
  }
  {
    WorkerPool::PauseBracket bracket(workers_.get());
    FinishConcurrentCycle();
  }
  safepoints_->EndOperation(&dctx);
  {
    // Empty critical section orders the notify after any in-flight waiter's
    // predicate check, so no wakeup is lost.
    std::lock_guard<std::mutex> guard(cycle_mu_);
  }
  cycle_cv_.notify_all();
  safepoints_->UnregisterThread(&dctx);
}

void RegionalCollector::FinishConcurrentCycle() {
  ConcurrentCycle& c = *cycle_;
  uint64_t t0 = NowNs();
  uint64_t cpu0 = ThreadCpuNs();
  WorkerCpuSink workers_cpu;
  PreparePause();

  {
    // Drain the objects injected after the workers exited and re-heal the
    // roots: handles created during the window already hold healed values
    // (every mutator load passed the barrier), so this pass only matters for
    // cancelled cycles and costs one in-cset check per root otherwise.
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kEvacuate, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.remap");
    std::vector<std::atomic<Object*>*> roots;
    ForEachRootSlot(heap_->roots(), safepoints_,
                    [&](std::atomic<Object*>* slot) { roots.push_back(slot); });
    EvacuationUnits units;
    units.roots = roots;
    c.task.Run(/*pool=*/nullptr, units);
  }
  uint64_t copied = FinishEvacuation(&c.task, c.cset, /*evac_t0=*/0,
                                     "post-concurrent-evacuation",
                                     c.trust_marks ? &bitmap_ : nullptr, nullptr);
  RunSampledWalk("sampled-walk");
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();

  // Disarm before the mutators resume; from their perspective the barrier
  // state only ever changes across a pause.
  evac_armed_.store(false, std::memory_order_release);
  heap_->RefreshBarrierMode();

  uint64_t t1 = NowNs();
  metrics_.AddPauseRemapNs(t1 - t0);
  metrics_.AddRemapCpuNs(ThreadCpuNs() - cpu0 + workers_cpu.ns());
  PauseRecord rec{t0, t1 - t0, PauseKind::kRemap, copied};
  metrics_.RecordPause(rec);
  Trace::EmitComplete("gc", "gc.pause", rec.start_ns, rec.duration_ns,
                      static_cast<uint64_t>(rec.kind));
  if (profiler_ != nullptr) {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kProfilerMerge, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.profiler-merge");
    uint64_t prof_t0 = NowNs();
    profiler_->OnGcEnd({metrics_.GcCycles(), rec.duration_ns, rec.kind, workers_.get()});
    metrics_.AddPauseProfilerNs(NowNs() - prof_t0);
  }

  bool failed = c.task.failed();
  bool cancelled = c.cancel.IsCancelled();
  concurrent_active_.store(false, std::memory_order_release);
  cycle_.reset();

  if (failed) {
    if (cancelled) {
      ROLP_LOG_ERROR(
          "concurrent evacuation cancelled; finished self-forwarded, "
          "falling back to full collection");
    } else {
      ROLP_LOG_INFO("concurrent evacuation failure; escalating to full collection");
    }
    DoFull(NowNs());
  }
  ReportOverrunToProfiler();
}

void RegionalCollector::DoFull(uint64_t t0) {
  PreparePause();
  MarkCompact compactor(heap_, &bitmap_);
  uint64_t moved;
  {
    // The STW fallback is not cancellable (no token): it must finish. The
    // watchdog still times it — repeated overruns here abort (ladder rung 5).
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kCompact, nullptr, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.compact");
    // Stall-only fail point: a delay:<ms> arm sleeps here and returns false.
    (void)ROLP_FAULT_POINT("gc.phase.compact.stall");
    moved = compactor.Collect(safepoints_, workers_.get());
  }
  // Post-compaction sampled walk: the full collection just rewrote every
  // region and rebuilt every remembered set, so check the result before
  // resuming the mutators. Walkable quarantined regions were rehabilitated by
  // the compactor; anything still broken gets re-quarantined here.
  RunSampledWalk("post-compaction");
  metrics_.AddBytesCopied(moved);
  metrics_.IncrementGcCycles();
  heap_->UpdateMaxUsedBytes();
  uint64_t t1 = NowNs();
  PauseRecord rec{t0, t1 - t0, PauseKind::kFull, moved};
  metrics_.RecordPause(rec);
  Trace::EmitComplete("gc", "gc.pause", rec.start_ns, rec.duration_ns,
                      static_cast<uint64_t>(rec.kind));
  if (profiler_ != nullptr) {
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kProfilerMerge, nullptr, &metrics_);
    profiler_->OnGcEnd({metrics_.GcCycles(), rec.duration_ns, rec.kind, workers_.get()});
  }
  ReportOverrunToProfiler();
}

void RegionalCollector::ReportOverrunToProfiler() {
  if (watchdog_ == nullptr || profiler_ == nullptr) {
    return;
  }
  if (watchdog_->TakeOverrunFlag()) {
    profiler_->OnGcOverrun(profiler_->SurvivorTrackingEnabled());
  }
}

void RegionalCollector::CollectFull(MutatorContext* ctx) {
  for (;;) {
    WaitForConcurrentCycle(ctx);
    if (!safepoints_->BeginOperation(ctx)) {
      continue;
    }
    if (!concurrent_active_.load(std::memory_order_acquire)) {
      break;  // we own a stopped world with no cycle in flight
    }
    safepoints_->EndOperation(ctx);
  }
  {
    WorkerPool::PauseBracket bracket(workers_.get());
    DoFull(NowNs());
  }
  safepoints_->EndOperation(ctx);
}

void RegionalCollector::WaitForConcurrentCycle(MutatorContext* ctx) {
  if (!concurrent_active_.load(std::memory_order_acquire)) {
    return;
  }
  // Park as safe for the whole wait: the driver's final pause needs every
  // mutator stopped, including the ones blocked here.
  SafepointManager::ScopedSafeRegion safe(safepoints_, ctx);
  std::unique_lock<std::mutex> lock(cycle_mu_);
  cycle_cv_.wait(lock,
                 [&] { return !concurrent_active_.load(std::memory_order_acquire); });
}

Object* RegionalCollector::HealSlot(std::atomic<Object*>* slot, Object* v) {
  RegionManager& regions = heap_->regions();
  Region* vr = regions.RegionFor(v);
  if (!vr->evacuating()) {
    return v;
  }
  Object* healed = cycle_->task.MutatorHeal(v);
  if (healed != v) {
    mutator_healed_objects_.fetch_add(1, std::memory_order_relaxed);
    mutator_healed_bytes_.fetch_add(healed->size_bytes, std::memory_order_relaxed);
    // Keep a racing store's newer value: a failed CAS means the slot no
    // longer holds the from-space pointer we loaded.
    slot->compare_exchange_strong(v, healed, std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
    // Remembered set for the healed reference (region-coarse, so the slot's
    // region stands in for the containing object). Roots live outside the
    // heap and need no remset.
    if (regions.Contains(slot)) {
      Region* sr = regions.RegionFor(slot);
      Region* hr = regions.RegionFor(healed);
      if (sr != hr && !(sr->IsYoung() && hr->IsYoung())) {
        hr->RemsetAddRegion(sr->index());
      }
    }
    return healed;
  }
  // Self-forwarded in place (exhaustion/cancel): the slot value stays valid.
  return v;
}

}  // namespace rolp
