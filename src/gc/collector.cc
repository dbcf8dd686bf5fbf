#include "src/gc/collector.h"

#include <chrono>
#include <thread>

#include "src/gc/evacuation.h"
#include "src/util/clock.h"
#include "src/util/crash_context.h"
#include "src/util/log.h"
#include "src/util/metrics_registry.h"
#include "src/util/trace.h"

namespace rolp {

Collector::Collector(Heap* heap, const GcConfig& config, SafepointManager* safepoints)
    : heap_(heap), config_(config), safepoints_(safepoints) {
  workers_ = std::make_unique<WorkerPool>(config_.num_workers);
  watchdog_ = GcWatchdog::CreateFromEnv(workers_.get());
  verify_options_ = VerifyOptions::FromEnv();
}

void Collector::AllocationBackoff(int attempt) {
  if (attempt < 4) {
    std::this_thread::yield();
    return;
  }
  int shift = attempt - 4 < 7 ? attempt - 4 : 7;
  std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
}

bool Collector::ApplyVerification(const char* when, const HeapVerifier::Report& report) {
  verify_stats_.passes++;
  verify_stats_.refs_healed += report.refs_healed;
  verify_stats_.refs_nulled += report.refs_nulled;
  if (report.cancelled) {
    verify_stats_.passes_cancelled++;
    MetricsRegistry::Instance().Counter("verify.passes_cancelled")->Add();
  }
  MetricsRegistry::Instance().Counter("verify.passes")->Add();
  if (report.findings.empty()) {
    return false;
  }
  verify_stats_.findings += report.findings.size();
  MetricsRegistry::Instance().Counter("verify.findings")->Add(report.findings.size());
  ROLP_LOG_ERROR("heap verification (%s): %s", when, report.Summary().c_str());
  size_t shown = 0;
  for (const HeapVerifier::Finding& f : report.findings) {
    if (shown++ >= 8) {
      ROLP_LOG_ERROR("  ... %zu more finding(s) suppressed", report.findings.size() - 8);
      break;
    }
    ROLP_LOG_ERROR("  finding: %s", f.detail.c_str());
  }
  if (report.has_fatal()) {
    // Root-set or forwarding-graph corruption: no quarantine can make
    // continued execution safe. Dump everything and abort.
    CrashContext::Dump(stderr);
    ROLP_CHECK_MSG(false, "heap verification found unrecoverable corruption "
                          "(root set or forwarding graph)");
  }
  if (profiler_ != nullptr) {
    profiler_->OnHeapCorruption(report.findings.size());
  }
  return true;
}

std::vector<uint32_t> Collector::QuarantineFlagged(HeapVerifier* verifier,
                                                   const std::vector<Region*>& doomed,
                                                   HeapVerifier::Report* report) {
  std::vector<uint32_t> kept = verifier->CascadeQuarantine(doomed, report);
  if (kept.empty()) {
    return kept;
  }
  // The cascade may itself uncover fatal forwarding corruption.
  if (report->has_fatal()) {
    CrashContext::Dump(stderr);
    ROLP_CHECK_MSG(false, "heap verification found unrecoverable corruption "
                          "(forwarding graph, during quarantine cascade)");
  }
  RegionManager& regions = heap_->regions();
  for (uint32_t idx : kept) {
    regions.Quarantine(&regions.region(idx), /*walkable=*/true);
  }
  verify_stats_.regions_quarantined += kept.size();
  MetricsRegistry::Instance().Counter("verify.regions_quarantined")->Add(kept.size());
  return kept;
}

void Collector::RecordCrossRegionEdges(Region* region) {
  RegionManager& regions = heap_->regions();
  uint32_t index = region->index();
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId) {
      return;
    }
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
      Object* v = slot->load(std::memory_order_relaxed);
      if (v == nullptr || !regions.Contains(v)) {
        return;
      }
      Region* vr = regions.RegionFor(v);
      if (vr != region && !vr->IsFree()) {
        vr->RemsetAddRegion(index);
      }
    });
  });
}

void Collector::ScrubRetiredEvacFailure(Region* region) {
  RegionManager& regions = heap_->regions();
  size_t live = 0;
  region->ForEachObject([&](Object* obj) {
    if (obj->class_id == kFreeBlockClassId) {
      return;
    }
    if (markword::IsForwarded(obj->LoadMark())) {
      ScrubToFreeBlock(obj);
      return;
    }
    live += obj->size_bytes;
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
      Object* v = slot->load(std::memory_order_relaxed);
      if (v == nullptr || !regions.Contains(v)) {
        return;
      }
      Region* vr = regions.RegionFor(v);
      if (vr != region && !vr->IsFree()) {
        vr->RemsetAddRegion(region->index());
      }
    });
  });
  region->set_live_bytes(live);
}

std::vector<Region*> Collector::RemsetSources(const std::vector<Region*>& cset) {
  RegionManager& regions = heap_->regions();
  std::unique_ptr<std::atomic<uint8_t>[]> seen(
      new std::atomic<uint8_t>[regions.num_regions()]());
  std::vector<std::vector<Region*>> partials(workers_->size());
  workers_->ParallelFor(cset.size(), 4, [&](uint32_t w, size_t begin, size_t end) {
    for (size_t i = begin; i < end; i++) {
      cset[i]->ForEachRemsetRegion([&](uint32_t idx) {
        if (seen[idx].load(std::memory_order_relaxed) != 0 ||
            seen[idx].exchange(1, std::memory_order_relaxed) != 0) {
          return;
        }
        Region* s = &regions.region(idx);
        if (!s->IsFree() && !s->in_cset() && s->kind() != RegionKind::kHumongousCont &&
            !s->IsUnscannable()) {
          partials[w].push_back(s);
        }
      });
    }
  });
  std::vector<Region*> sources;
  for (auto& p : partials) {
    sources.insert(sources.end(), p.begin(), p.end());
  }
  return sources;
}

uint64_t Collector::FinishEvacuation(EvacuationTask* task, const std::vector<Region*>& cset,
                                     uint64_t evac_t0, const char* when,
                                     const MarkBitmap* live_filter, MarkBitmap* clear_marks) {
  RegionManager& regions = heap_->regions();
  task->RestoreSelfForwarded();
  task->FinishShared();
  std::vector<Region*> doomed;
  doomed.reserve(cset.size());
  for (Region* r : cset) {
    r->set_evacuating(false);
    if (r->evac_failed()) {
      // In-place survivors: the region is retired to old; scrubbing turns the
      // stale originals of copied objects into free blocks and re-records the
      // survivors' remset edges under the region's new (old) kind.
      r->set_evac_failed(false);
      r->set_in_cset(false);
      regions.RetireToOld(r);
      ScrubRetiredEvacFailure(r);
    } else {
      doomed.push_back(r);
    }
  }
  if (evac_t0 != 0) {
    metrics_.AddPauseEvacNs(NowNs() - evac_t0);
  }

  // Post-evacuation verification: no root and no surviving object may still
  // reference an unforwarded object in a region about to be freed. Regions
  // that fail the check are quarantined (kept, pinned as old) instead of
  // freed — the process keeps serving with bounded garbage retention.
  if (verify_options_.enabled() && !doomed.empty()) {
    uint64_t verify_t0 = NowNs();
    CancellationToken verify_cancel;
    WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kVerify, &verify_cancel, &metrics_);
    ROLP_TRACE_SCOPE("gc", "gc.phase.verify");
    HeapVerifier verifier(heap_, safepoints_);
    HeapVerifier::Report report = verifier.VerifyCollectionSet(
        doomed, workers_.get(), verify_options_, NextVerifyPass(), &verify_cancel, live_filter);
    if (ApplyVerification(when, report)) {
      QuarantineFlagged(&verifier, doomed, &report);
    }
    metrics_.AddPauseVerifyNs(NowNs() - verify_t0);
  }
  for (Region* r : doomed) {
    if (r->quarantined()) {
      continue;
    }
    if (clear_marks != nullptr) {
      clear_marks->ClearRange(r->begin(), r->end());
    }
    regions.FreeRegion(r);
  }

  uint64_t copied = task->mutator_bytes_copied();
  uint64_t promoted = task->mutator_bytes_promoted();
  for (uint32_t w = 0; w < task->num_workers(); w++) {
    const EvacuationTask::Worker& ew = task->worker(w);
    copied += ew.bytes_copied();
    promoted += ew.bytes_promoted();
    metrics_.AddWorkerCopiedBytes(w, ew.bytes_copied());
  }
  metrics_.AddBytesCopied(copied);
  metrics_.AddBytesPromoted(promoted);
  return copied;
}

void Collector::RunSampledWalk(const char* when) {
  if (!verify_options_.enabled()) {
    return;
  }
  uint64_t verify_t0 = NowNs();
  RegionManager& regions = heap_->regions();
  CancellationToken verify_cancel;
  WatchdogPhaseScope scope(watchdog_.get(), GcPhase::kVerify, &verify_cancel, &metrics_);
  ROLP_TRACE_SCOPE("gc", "gc.phase.verify");
  HeapVerifier verifier(heap_, safepoints_);
  HeapVerifier::Report report = verifier.VerifySampledWalk(
      workers_.get(), verify_options_, NextVerifyPass(), /*repair=*/true, &verify_cancel);
  if (ApplyVerification(when, report)) {
    for (const HeapVerifier::Finding& f : report.findings) {
      if (f.kind == HeapVerifier::Finding::Kind::kRegionCorrupt &&
          f.region != HeapVerifier::Finding::kNoRegion) {
        // Broken tiling: the region can never be walked again.
        regions.Quarantine(&regions.region(f.region), /*walkable=*/false);
        verify_stats_.regions_quarantined++;
      }
    }
  }
  metrics_.AddPauseVerifyNs(NowNs() - verify_t0);
}

}  // namespace rolp
