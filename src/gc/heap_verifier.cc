#include "src/gc/heap_verifier.h"

#include <cstdio>

#include "src/util/env.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/spinlock.h"

namespace rolp {

namespace {

std::string Fmt(const char* fmt, const void* a, const void* b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Rotating sampled coverage: pass k at period N walks regions k mod N,
// k mod N + N, ... so N consecutive pauses cover every region.
bool SampledIn(uint32_t region_index, const VerifyOptions& opts, uint64_t pass) {
  uint32_t period = opts.EffectivePeriod();
  return period <= 1 || region_index % period == pass % period;
}

constexpr size_t kRegionsPerChunk = 8;

}  // namespace

const char* VerifyLevelName(VerifyLevel level) {
  switch (level) {
    case VerifyLevel::kOff:
      return "off";
    case VerifyLevel::kPause:
      return "pause";
    case VerifyLevel::kFull:
      return "full";
  }
  return "?";
}

VerifyOptions VerifyOptions::FromEnv() {
  VerifyOptions opts;
  std::string level = EnvString("ROLP_VERIFY", "off");
  if (level == "pause") {
    opts.level = VerifyLevel::kPause;
  } else if (level == "full") {
    opts.level = VerifyLevel::kFull;
  } else if (level != "off") {
    ROLP_LOG_WARN("ROLP_VERIFY=%s not recognized (want off|pause|full); verification off",
                  level.c_str());
  }
  int64_t sample = EnvInt64("ROLP_VERIFY_SAMPLE", 8);
  opts.sample_period = sample < 1 ? 1 : static_cast<uint32_t>(sample);
  return opts;
}

bool HeapVerifier::Report::has_fatal() const {
  for (const Finding& f : findings) {
    if (f.fatal()) {
      return true;
    }
  }
  return false;
}

void HeapVerifier::Report::Add(Finding finding) {
  errors.push_back(finding.detail);
  findings.push_back(std::move(finding));
}

void HeapVerifier::Report::Merge(const Report& other) {
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  findings.insert(findings.end(), other.findings.begin(), other.findings.end());
  objects_walked += other.objects_walked;
  refs_checked += other.refs_checked;
  regions_walked += other.regions_walked;
  refs_healed += other.refs_healed;
  refs_nulled += other.refs_nulled;
  cancelled = cancelled || other.cancelled;
}

std::string HeapVerifier::Report::Summary() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "verified %llu objects / %llu refs in %llu regions: %s (%zu errors, "
                "%llu healed, %llu nulled%s)",
                static_cast<unsigned long long>(objects_walked),
                static_cast<unsigned long long>(refs_checked),
                static_cast<unsigned long long>(regions_walked), ok() ? "OK" : "CORRUPT",
                errors.size(), static_cast<unsigned long long>(refs_healed),
                static_cast<unsigned long long>(refs_nulled),
                cancelled ? ", cancelled" : "");
  return buf;
}

bool HeapVerifier::PlausibleObject(Object* obj, Report* report, const char* what,
                                   uint32_t region_index) {
  auto add = [&](std::string detail) {
    Finding f;
    f.kind = Finding::Kind::kDanglingRef;
    f.region = region_index;
    f.detail = std::move(detail);
    report->Add(std::move(f));
  };
  if (reinterpret_cast<uintptr_t>(obj) % kObjectAlignment != 0) {
    add(Fmt("misaligned %p (%s)", obj, what));
    return false;
  }
  if (!heap_->regions().Contains(obj)) {
    add(Fmt("outside heap: %p (%s)", obj, what));
    return false;
  }
  Region* r = heap_->regions().RegionFor(obj);
  if (r->IsFree()) {
    add(Fmt("in free region: %p (%s)", obj, what));
    return false;
  }
  if (obj->size_bytes < kObjectHeaderSize && obj->class_id != kFreeBlockClassId) {
    add(Fmt("tiny size at %p (%s)", obj, what));
    return false;
  }
  if (obj->class_id != kFreeBlockClassId &&
      obj->class_id >= heap_->classes().NumClasses()) {
    add(Fmt("unknown class at %p (%s)", obj, what));
    return false;
  }
  return true;
}

bool HeapVerifier::PlausibleTarget(Object* obj, Report* report, const char* what) {
  if (!PlausibleObject(obj, report, what)) {
    return false;
  }
  if (obj->class_id == kFreeBlockClassId) {
    Finding f;
    f.kind = Finding::Kind::kDanglingRef;
    f.detail = Fmt("free block %p (%s)", obj, what);
    report->Add(std::move(f));
    return false;
  }
  return true;
}

void HeapVerifier::VerifyObjectRefs(Object* obj, Region* region, Report* report) {
  heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    report->refs_checked++;
    if (!PlausibleTarget(v, report, "field target")) {
      return;
    }
    if (markword::IsForwarded(v->LoadMark())) {
      Finding f;
      f.kind = Finding::Kind::kStaleForward;
      f.region = heap_->regions().RegionFor(v)->index();
      f.detail = Fmt("field %p -> forwarded object %p", slot, v);
      report->Add(std::move(f));
      return;
    }
    if (check_remsets_) {
      Region* vr = heap_->regions().RegionFor(v);
      if (vr != region && !(region->IsYoung() && vr->IsYoung())) {
        // The barrier records the head region for humongous sources; accept
        // either the exact region or any region of the same humongous span.
        if (!vr->RemsetContainsRegion(region->index())) {
          Finding f;
          f.kind = Finding::Kind::kMissingRemset;
          f.region = vr->index();
          f.detail = Fmt("missing remset entry for edge %p -> %p", obj, v);
          report->Add(std::move(f));
        }
      }
    }
  });
}

void HeapVerifier::VerifyRegion(Region* region, Report* report) {
  report->regions_walked++;
  char* p = region->begin();
  char* top = region->top();
  char* limit = region->kind() == RegionKind::kHumongous
                    ? region->begin() + static_cast<size_t>(region->humongous_span()) *
                                            region->capacity()
                    : region->end();
  if (top < region->begin() || (region->kind() != RegionKind::kHumongous && top > limit)) {
    Finding f;
    f.kind = Finding::Kind::kRegionCorrupt;
    f.region = region->index();
    f.detail = Fmt("region %p has top out of bounds %p", region->begin(), top);
    report->Add(std::move(f));
    return;
  }
  while (p < top) {
    Object* obj = reinterpret_cast<Object*>(p);
    if (!PlausibleObject(obj, report, "walk", region->index())) {
      // Reclassify: an implausible object mid-walk means the region tiling
      // itself is broken and the region can never be scanned again.
      report->findings.back().kind = Finding::Kind::kRegionCorrupt;
      return;
    }
    size_t size = obj->size_bytes;
    if (size % kObjectAlignment != 0 || p + size > top) {
      Finding f;
      f.kind = Finding::Kind::kRegionCorrupt;
      f.region = region->index();
      f.detail = Fmt("object %p overruns region top %p", obj, top);
      report->Add(std::move(f));
      return;
    }
    if (obj->class_id != kFreeBlockClassId) {
      report->objects_walked++;
      if (markword::IsForwarded(obj->LoadMark())) {
        Finding f;
        f.kind = Finding::Kind::kStaleForward;
        f.region = region->index();
        f.detail = Fmt("stale forwarded object %p (region %p)", obj, region->begin());
        report->Add(std::move(f));
      } else {
        VerifyObjectRefs(obj, region, report);
      }
    }
    p += size;
  }
}

HeapVerifier::Report HeapVerifier::Verify() {
  Report report;
  RegionManager& regions = heap_->regions();
  regions.ForEachRegion([&](Region* r) {
    if (r->IsFree() || r->kind() == RegionKind::kHumongousCont) {
      return;
    }
    if (r->IsUnscannable()) {
      return;  // quarantined with broken tiling: pinned, never walked again
    }
    VerifyRegion(r, &report);
  });
  // Roots point at plausible, unforwarded objects.
  auto check_root = [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    report.refs_checked++;
    if (!PlausibleTarget(v, &report, "root")) {
      report.findings.back().kind = Finding::Kind::kRootCorrupt;
      return;
    }
    if (markword::IsForwarded(v->LoadMark())) {
      Finding f;
      f.kind = Finding::Kind::kRootCorrupt;
      f.detail = Fmt("root %p -> forwarded %p", slot, v);
      report.Add(std::move(f));
    }
  };
  ForEachRootSlot(heap_->roots(), safepoints_, check_root);
  return report;
}

// --- In-pause passes --------------------------------------------------------

namespace {

// Runs fn(region) over every sampled region, parallel when a pool is given.
// Merges per-chunk partial reports into *out under a lock.
void ForEachSampledRegion(RegionManager& regions, WorkerPool* workers,
                          const VerifyOptions& opts, uint64_t pass,
                          CancellationToken* cancel, HeapVerifier::Report* out,
                          const std::function<void(Region*, HeapVerifier::Report*)>& fn) {
  SpinLock merge_lock;
  auto run_chunk = [&](size_t begin, size_t end) {
    if (ROLP_FAULT_POINT("gc.verify.stall")) {
      // Delay-armed in practice; a fire without delay is a no-op.
    }
    HeapVerifier::Report local;
    for (size_t i = begin; i < end; i++) {
      if (cancel != nullptr && cancel->IsCancelled()) {
        local.cancelled = true;
        break;
      }
      Region* r = &regions.region(i);
      if (!SampledIn(r->index(), opts, pass)) {
        continue;
      }
      fn(r, &local);
    }
    std::lock_guard<SpinLock> guard(merge_lock);
    out->Merge(local);
  };
  if (workers != nullptr) {
    workers->ParallelFor(regions.num_regions(), kRegionsPerChunk,
                         [&](uint32_t, size_t begin, size_t end) { run_chunk(begin, end); });
  } else {
    run_chunk(0, regions.num_regions());
  }
}

}  // namespace

HeapVerifier::Report HeapVerifier::VerifyPostMark(const MarkBitmap* bitmap,
                                                  WorkerPool* workers,
                                                  const VerifyOptions& opts, uint64_t pass,
                                                  CancellationToken* cancel) {
  Report report;
  RegionManager& regions = heap_->regions();
  ForEachSampledRegion(
      regions, workers, opts, pass, cancel, &report, [&](Region* r, Report* local) {
        if (r->IsFree() || r->kind() == RegionKind::kHumongousCont || r->quarantined()) {
          return;
        }
        local->regions_walked++;
        // Recount marked bytes; the marker's region live accounting must
        // agree. The recount is authoritative — a mismatch is repaired so
        // collection-set selection never acts on a corrupt live ratio.
        size_t marked_bytes = 0;
        r->ForEachObject([&](Object* obj) {
          if (obj->class_id == kFreeBlockClassId) {
            return;
          }
          local->objects_walked++;
          if (bitmap->IsMarked(obj)) {
            marked_bytes += obj->size_bytes;
          }
        });
        if (marked_bytes != r->live_bytes()) {
          Finding f;
          f.kind = Finding::Kind::kBadMark;
          f.region = r->index();
          f.detail = Fmt("region %p live accounting disagrees with mark bitmap (%p)",
                         r->begin(), reinterpret_cast<void*>(marked_bytes));
          local->Add(std::move(f));
          r->set_live_bytes(marked_bytes);
        }
      });
  // Reachability spot check: everything a root names was just marked.
  auto check_root = [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    report.refs_checked++;
    if (!PlausibleTarget(v, &report, "root")) {
      report.findings.back().kind = Finding::Kind::kRootCorrupt;
      return;
    }
    // Humongous objects are marked on their head region; v is the head.
    if (!bitmap->IsMarked(v)) {
      Finding f;
      f.kind = Finding::Kind::kBadMark;
      f.region = heap_->regions().RegionFor(v)->index();
      f.detail = Fmt("root %p -> unmarked object %p after marking", slot, v);
      report.Add(std::move(f));
    }
  };
  ForEachRootSlot(heap_->roots(), safepoints_, check_root);
  return report;
}

uint32_t HeapVerifier::CheckSlotAgainstDoomed(std::atomic<Object*>* slot,
                                              Region* slot_region,
                                              const std::vector<uint8_t>& doomed_map,
                                              Report* report, const char* what) {
  Object* v = slot->load(std::memory_order_relaxed);
  if (v == nullptr) {
    return Finding::kNoRegion;
  }
  report->refs_checked++;
  if (reinterpret_cast<uintptr_t>(v) % kObjectAlignment != 0 ||
      !heap_->regions().Contains(v)) {
    Finding f;
    f.kind = Finding::Kind::kDanglingRef;
    f.detail = Fmt("implausible %p in slot %p", v, slot);
    report->Add(std::move(f));
    return Finding::kNoRegion;
  }
  Region* vr = heap_->regions().RegionFor(v);
  if (doomed_map[vr->index()] == 0) {
    return Finding::kNoRegion;
  }
  uint64_t m = v->LoadMark();
  if (markword::IsForwarded(m)) {
    // The evacuation copied this object but never healed this slot — a
    // missed scan. Heal it now; corrupt forwarding is unrecoverable.
    Object* to = markword::ForwardedPtr(m);
    if (reinterpret_cast<uintptr_t>(to) % kObjectAlignment != 0 ||
        !heap_->regions().Contains(to) || heap_->regions().RegionFor(to)->IsFree()) {
      Finding f;
      f.kind = Finding::Kind::kForwardCycle;
      f.region = vr->index();
      f.detail = Fmt("object %p forwarded outside live heap (%p)", v, to);
      report->Add(std::move(f));
      return Finding::kNoRegion;
    }
    if (markword::IsForwarded(to->LoadMark())) {
      Finding f;
      f.kind = Finding::Kind::kForwardCycle;
      f.region = vr->index();
      f.detail = Fmt("forwarding chain %p -> %p does not terminate", v, to);
      report->Add(std::move(f));
      return Finding::kNoRegion;
    }
    slot->store(to, std::memory_order_relaxed);
    report->refs_healed++;
    if (check_remsets_ && slot_region != nullptr) {
      Region* tr = heap_->regions().RegionFor(to);
      if (tr != slot_region) {
        tr->RemsetAddRegion(slot_region->index());
      }
    }
    Finding f;
    f.kind = Finding::Kind::kStaleRef;
    f.detail = Fmt("healed missed slot %p -> %p", slot, v);
    report->Add(std::move(f));
    return Finding::kNoRegion;
  }
  // Unforwarded object in a region about to be freed: the evacuation never
  // discovered it (e.g. a dropped remembered-set edge). The region must be
  // kept; repair the remset so the edge is scanned from now on.
  if (check_remsets_ && slot_region != nullptr && vr != slot_region) {
    vr->RemsetAddRegion(slot_region->index());
  }
  Finding f;
  f.kind = Finding::Kind::kStaleRef;
  f.region = vr->index();
  f.detail = Fmt("undiscovered survivor %p (slot %p)", v, slot);
  (void)what;
  report->Add(std::move(f));
  return vr->index();
}

void HeapVerifier::CheckRootsAgainstDoomed(const std::vector<uint8_t>& doomed_map,
                                           Report* report) {
  ForEachRootSlot(heap_->roots(), safepoints_, [&](std::atomic<Object*>* slot) {
    (void)CheckSlotAgainstDoomed(slot, nullptr, doomed_map, report, "root");
  });
}

HeapVerifier::Report HeapVerifier::VerifyCollectionSet(const std::vector<Region*>& doomed,
                                                       WorkerPool* workers,
                                                       const VerifyOptions& opts,
                                                       uint64_t pass,
                                                       CancellationToken* cancel,
                                                       const MarkBitmap* live_filter) {
  Report report;
  if (doomed.empty()) {
    return report;
  }
  RegionManager& regions = heap_->regions();
  std::vector<uint8_t> doomed_map(regions.num_regions(), 0);
  for (const Region* r : doomed) {
    doomed_map[r->index()] = 1;
  }
  // Roots first (cheap, never sampled away).
  CheckRootsAgainstDoomed(doomed_map, &report);
  // Then every surviving region's outgoing slots, sampled.
  ForEachSampledRegion(
      regions, workers, opts, pass, cancel, &report, [&](Region* r, Report* local) {
        if (r->IsFree() || r->kind() == RegionKind::kHumongousCont ||
            doomed_map[r->index()] != 0 || r->IsUnscannable()) {
          return;
        }
        local->regions_walked++;
        r->ForEachObject([&](Object* obj) {
          if (obj->class_id == kFreeBlockClassId ||
              markword::IsForwarded(obj->LoadMark())) {
            return;  // free gap or stale copy in an evacuation-failure region
          }
          if (live_filter != nullptr && !live_filter->IsMarked(obj)) {
            return;  // dead object: its slots may legitimately be stale
          }
          local->objects_walked++;
          heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
            (void)CheckSlotAgainstDoomed(slot, r, doomed_map, local, "survivor scan");
          });
        });
      });
  return report;
}

std::vector<uint32_t> HeapVerifier::CascadeQuarantine(const std::vector<Region*>& doomed,
                                                      Report* report) {
  RegionManager& regions = heap_->regions();
  std::vector<uint8_t> doomed_map(regions.num_regions(), 0);
  for (const Region* r : doomed) {
    doomed_map[r->index()] = 1;
  }
  std::vector<uint8_t> kept(regions.num_regions(), 0);
  std::vector<uint32_t> worklist;
  for (const Finding& f : report->findings) {
    if (f.kind == Finding::Kind::kStaleRef && f.region != Finding::kNoRegion &&
        kept[f.region] == 0) {
      kept[f.region] = 1;
      worklist.push_back(f.region);
    }
  }
  std::vector<uint32_t> result = worklist;
  // Keeping a region keeps its unforwarded objects alive in place, which
  // keeps everything they reference alive too — including survivors in other
  // doomed regions. Close over that: heal refs to moved objects, scrub stale
  // copies into free blocks (the region must stay cleanly walkable forever),
  // and pull any still-referenced doomed region into the kept set.
  while (!worklist.empty()) {
    uint32_t idx = worklist.back();
    worklist.pop_back();
    Region* r = &regions.region(idx);
    r->ForEachObject([&](Object* obj) {
      if (obj->class_id == kFreeBlockClassId) {
        return;
      }
      uint64_t m = obj->LoadMark();
      if (markword::IsForwarded(m)) {
        // The live copy moved out; turn the stale original into a free block
        // so future walks and scans of this pinned region skip it.
        ScrubToFreeBlock(obj);
        return;
      }
      heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
        Object* v = slot->load(std::memory_order_relaxed);
        if (v == nullptr) {
          return;
        }
        report->refs_checked++;
        if (reinterpret_cast<uintptr_t>(v) % kObjectAlignment != 0 ||
            !heap_->regions().Contains(v)) {
          slot->store(nullptr, std::memory_order_relaxed);
          report->refs_nulled++;
          return;
        }
        Region* vr = heap_->regions().RegionFor(v);
        uint64_t vm = v->LoadMark();
        if (markword::IsForwarded(vm)) {
          Object* to = markword::ForwardedPtr(vm);
          if (!heap_->regions().Contains(to) || markword::IsForwarded(to->LoadMark())) {
            Finding f;
            f.kind = Finding::Kind::kForwardCycle;
            f.region = vr->index();
            f.detail = Fmt("forwarding chain %p -> %p corrupt in cascade", v, to);
            report->Add(std::move(f));
            return;
          }
          slot->store(to, std::memory_order_relaxed);
          report->refs_healed++;
          vr = heap_->regions().RegionFor(to);
          v = to;
        } else if (doomed_map[vr->index()] != 0 && kept[vr->index()] == 0) {
          // Another doomed region is still referenced from a kept survivor.
          kept[vr->index()] = 1;
          worklist.push_back(vr->index());
          result.push_back(vr->index());
          Finding f;
          f.kind = Finding::Kind::kStaleRef;
          f.region = vr->index();
          f.detail = Fmt("cascade: survivor %p keeps region of %p alive", obj, v);
          report->Add(std::move(f));
        }
        // This region is being pinned as tenured; make sure the edge is in
        // the target's remset so future collections scan it as a source.
        if (check_remsets_ && vr != r) {
          vr->RemsetAddRegion(r->index());
        }
      });
    });
  }
  return result;
}

void HeapVerifier::WalkRegionChecked(Region* region, const VerifyOptions& opts, bool repair,
                                     Report* report) {
  report->regions_walked++;
  char* p = region->begin();
  char* top = region->top();
  if (top < region->begin() ||
      (region->kind() != RegionKind::kHumongous && top > region->end())) {
    Finding f;
    f.kind = Finding::Kind::kRegionCorrupt;
    f.region = region->index();
    f.detail = Fmt("region %p has top out of bounds %p", region->begin(), top);
    report->Add(std::move(f));
    return;
  }
  while (p < top) {
    Object* obj = reinterpret_cast<Object*>(p);
    size_t before = report->findings.size();
    if (!PlausibleObject(obj, report, "walk", region->index())) {
      report->findings[before].kind = Finding::Kind::kRegionCorrupt;
      return;
    }
    size_t size = obj->size_bytes;
    if (size % kObjectAlignment != 0 || p + size > top) {
      Finding f;
      f.kind = Finding::Kind::kRegionCorrupt;
      f.region = region->index();
      f.detail = Fmt("object %p overruns region top %p", obj, top);
      report->Add(std::move(f));
      return;
    }
    if (obj->class_id != kFreeBlockClassId) {
      report->objects_walked++;
      uint64_t m = obj->LoadMark();
      if (markword::IsForwarded(m)) {
        Finding f;
        f.kind = Finding::Kind::kStaleForward;
        f.region = region->index();
        f.detail = Fmt("stale forwarded object %p (region %p)", obj, region->begin());
        report->Add(std::move(f));
        if (repair) {
          // The live copy is elsewhere; scrub so the region stays walkable.
          ScrubToFreeBlock(obj);
        }
      } else {
        // OLD-table cross-check: a live profiled object's context must
        // resolve in the table. Biased locking destroys the context bits, so
        // only unbiased objects are checkable.
        if (opts.context_known != nullptr && !markword::IsBiased(m)) {
          uint32_t context = markword::Context(m);
          if (context != 0 && !opts.context_known(context)) {
            Finding f;
            f.kind = Finding::Kind::kOldTableMiss;
            f.detail = Fmt("object %p context unknown to OLD table (%p)", obj,
                           reinterpret_cast<void*>(static_cast<uintptr_t>(context)));
            report->Add(std::move(f));
          }
        }
        heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
          Object* v = slot->load(std::memory_order_relaxed);
          if (v == nullptr) {
            return;
          }
          report->refs_checked++;
          size_t before_refs = report->findings.size();
          if (!PlausibleTarget(v, report, "field target")) {
            if (repair) {
              // The target is gone; a null is the only safe value left.
              slot->store(nullptr, std::memory_order_relaxed);
              report->refs_nulled++;
            }
            (void)before_refs;
            return;
          }
          if (markword::IsForwarded(v->LoadMark())) {
            Object* to = markword::ForwardedPtr(v->LoadMark());
            bool to_ok = heap_->regions().Contains(to) &&
                         !markword::IsForwarded(to->LoadMark());
            Finding f;
            f.kind = Finding::Kind::kStaleForward;
            f.region = heap_->regions().RegionFor(v)->index();
            f.detail = Fmt("field %p -> forwarded object %p", slot, v);
            report->Add(std::move(f));
            if (repair && to_ok) {
              slot->store(to, std::memory_order_relaxed);
              report->refs_healed++;
            }
            return;
          }
          if (check_remsets_ && opts.check_remsets) {
            Region* vr = heap_->regions().RegionFor(v);
            if (vr != region && !(region->IsYoung() && vr->IsYoung()) &&
                !vr->RemsetContainsRegion(region->index())) {
              Finding f;
              f.kind = Finding::Kind::kMissingRemset;
              f.region = vr->index();
              f.detail = Fmt("missing remset entry for edge %p -> %p", obj, v);
              report->Add(std::move(f));
              if (repair) {
                vr->RemsetAddRegion(region->index());
              }
            }
          }
        });
      }
    }
    p += size;
  }
}

HeapVerifier::Report HeapVerifier::VerifySampledWalk(WorkerPool* workers,
                                                     const VerifyOptions& opts,
                                                     uint64_t pass, bool repair,
                                                     CancellationToken* cancel) {
  Report report;
  if (opts.on_pass_begin != nullptr) {
    opts.on_pass_begin();
  }
  RegionManager& regions = heap_->regions();
  ForEachSampledRegion(
      regions, workers, opts, pass, cancel, &report, [&](Region* r, Report* local) {
        if (r->IsFree() || r->kind() == RegionKind::kHumongousCont || r->IsUnscannable()) {
          return;
        }
        WalkRegionChecked(r, opts, repair, local);
      });
  // Roots point at plausible, unforwarded objects (always checked).
  auto check_root = [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    report.refs_checked++;
    if (!PlausibleTarget(v, &report, "root")) {
      report.findings.back().kind = Finding::Kind::kRootCorrupt;
      return;
    }
    if (markword::IsForwarded(v->LoadMark())) {
      Finding f;
      f.kind = Finding::Kind::kRootCorrupt;
      f.detail = Fmt("root %p -> forwarded %p", slot, v);
      report.Add(std::move(f));
    }
  };
  ForEachRootSlot(heap_->roots(), safepoints_, check_root);
  return report;
}

}  // namespace rolp
