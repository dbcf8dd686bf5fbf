#include "src/gc/mark_compact.h"

#include <cstring>

#include "src/util/log.h"

namespace rolp {

uint64_t MarkCompact::Collect(SafepointManager* safepoints, WorkerPool* workers) {
  RegionManager& regions = heap_->regions();

  // Full collection recomputes liveness from roots without remsets, which
  // removes the reason walkable quarantined regions were pinned: lift their
  // quarantine so this cycle compacts them away like any other region.
  // Unscannable regions (broken tiling) stay pinned and untouched forever.
  regions.ForEachRegion([&](Region* r) { regions.Unquarantine(r); });

  // Phase 1: mark.
  Marker marker(heap_, bitmap_);
  marker.MarkFromRoots(safepoints, workers);

  // Free dead humongous objects; collect the compactable region sequence in
  // address order. Regions whose remset names an unscannable quarantined
  // region are pinned out of compaction: the references held inside the
  // unscannable region can never be fixed up, so the objects they name must
  // not move. (Marking still traced *through* those objects, so everything
  // they reference is marked and gets normal treatment.)
  const bool check_pinned = !regions.UnscannableQuarantined().empty();
  std::vector<Region*> sequence;
  std::vector<Region*> pinned;  // walkable, but immovable this cycle
  regions.ForEachRegion([&](Region* r) {
    if (r->kind() == RegionKind::kHumongous && r->live_bytes() == 0 &&
        !r->quarantined()) {
      regions.FreeRegion(r);
      return;
    }
    if (r->IsFree() || r->IsHumongous() || r->IsUnscannable()) {
      return;
    }
    if (check_pinned && regions.PinnedByQuarantine(r)) {
      pinned.push_back(r);
      return;
    }
    sequence.push_back(r);
  });

  // Phase 2: compute forwarding addresses. Destination cursor walks the same
  // region sequence; objects never move to a higher address.
  struct Cursor {
    size_t region_idx = 0;
    char* p = nullptr;
  };
  Cursor dest;
  std::vector<char*> new_tops(sequence.size(), nullptr);
  for (size_t i = 0; i < sequence.size(); i++) {
    new_tops[i] = sequence[i]->begin();
  }
  if (!sequence.empty()) {
    dest.p = sequence[0]->begin();
  }
  std::vector<std::pair<Object*, uint64_t>> preserved;  // original marks, in move order
  auto advance_dest = [&](size_t bytes) -> char* {
    while (true) {
      Region* dr = sequence[dest.region_idx];
      if (static_cast<size_t>(dr->end() - dest.p) >= bytes) {
        char* at = dest.p;
        dest.p += bytes;
        new_tops[dest.region_idx] = dest.p;
        return at;
      }
      dest.region_idx++;
      ROLP_CHECK(dest.region_idx < sequence.size());
      dest.p = sequence[dest.region_idx]->begin();
    }
  };
  for (Region* r : sequence) {
    r->ForEachObject([&](Object* obj) {
      if (!bitmap_->IsMarked(obj)) {
        return;
      }
      char* to = advance_dest(obj->size_bytes);
      preserved.emplace_back(obj, obj->LoadMark());
      obj->StoreMark(markword::EncodeForwarded(reinterpret_cast<Object*>(to)));
    });
  }
  // Phase 3: update references (roots + all live objects' fields).
  auto fix_slot = [&](std::atomic<Object*>* slot) {
    Object* v = slot->load(std::memory_order_relaxed);
    if (v == nullptr) {
      return;
    }
    uint64_t m = v->LoadMark();
    if (markword::IsForwarded(m)) {
      slot->store(markword::ForwardedPtr(m), std::memory_order_relaxed);
    }
  };
  ForEachRootSlot(heap_->roots(), safepoints, fix_slot);
  // Live objects: compacted ones are exactly `preserved`; humongous live
  // objects are walked separately. Distinct objects' slots are disjoint and
  // fix_slot only reads forwarding info, so the fix-up shards freely across
  // GC workers.
  auto fix_object_fields = [&](Object* obj) {
    // Iterate fields using the original object location (class info comes
    // from non-mark header words, still intact).
    heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { fix_slot(slot); });
  };
  if (workers != nullptr) {
    workers->ParallelFor(preserved.size(), 1024,
                         [&](uint32_t, size_t begin, size_t end) {
                           for (size_t i = begin; i < end; i++) {
                             fix_object_fields(preserved[i].first);
                           }
                         });
  } else {
    for (auto& [obj, mark] : preserved) {
      fix_object_fields(obj);
    }
  }
  regions.ForEachRegion([&](Region* r) {
    if (r->kind() == RegionKind::kHumongous && r->live_bytes() > 0 &&
        !r->IsUnscannable()) {
      r->ForEachObject([&](Object* obj) {
        heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { fix_slot(slot); });
      });
    }
  });
  // Pinned regions don't move, but their fields may point at compacted
  // objects; they are walkable, so fix them in place.
  for (Region* r : pinned) {
    r->ForEachObject([&](Object* obj) {
      heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) { fix_slot(slot); });
    });
  }

  // Phase 4: move objects and restore marks. `preserved` is in source-walk
  // order, which equals destination order, so memmove is always safe.
  uint64_t moved_bytes = 0;
  for (auto& [obj, mark] : preserved) {
    Object* to = markword::ForwardedPtr(obj->LoadMark());
    size_t size = obj->size_bytes;
    if (to != obj) {
      std::memmove(to, obj, size);
      moved_bytes += size;
    }
    to->StoreMark(mark);
  }

  // Phase 5: fix region metadata. Compacted regions become old; empty tails
  // are freed. Every surviving region gets its remembered set rebuilt.
  std::vector<Region*> occupied;
  for (size_t i = 0; i < sequence.size(); i++) {
    Region* r = sequence[i];
    r->set_top(new_tops[i]);
    if (r->used() == 0) {
      regions.FreeRegion(r);
    } else {
      regions.RetireToOld(r);
      r->set_in_cset(false);
      r->set_live_bytes(r->used());
      occupied.push_back(r);
    }
  }
  regions.ForEachRegion([&](Region* r) {
    if (r->kind() == RegionKind::kHumongous && r->live_bytes() > 0 &&
        !r->IsUnscannable()) {
      occupied.push_back(r);
    }
  });
  // Pinned regions survive in place, treated as fully live (the unscannable
  // references keeping them pinned cannot be enumerated). They are walkable
  // rebuild sources like any other surviving region.
  for (Region* r : pinned) {
    if (r->IsYoung()) {
      regions.RetireToOld(r);
    }
    r->set_in_cset(false);
    r->set_live_bytes(r->used());
    occupied.push_back(r);
  }

  RebuildRemsets(occupied, workers);
  bitmap_->ClearAll();
  return moved_bytes;
}

void MarkCompact::RebuildRemsets(const std::vector<Region*>& occupied,
                                 WorkerPool* workers) {
  RegionManager& regions = heap_->regions();
  // A remset entry naming an unscannable quarantined region is the only
  // record that the unscannable region holds references into the target
  // (PinnedByQuarantine depends on it), and it cannot be recomputed — the
  // source can never be walked again. Carry those entries across the rebuild.
  std::vector<uint32_t> unscannable = regions.UnscannableQuarantined();
  std::vector<std::pair<Region*, uint32_t>> quarantine_edges;
  if (!unscannable.empty()) {
    regions.ForEachRegion([&](Region* r) {
      for (uint32_t u : unscannable) {
        if (r->RemsetContainsRegion(u)) {
          quarantine_edges.emplace_back(r, u);
        }
      }
    });
  }
  regions.ForEachRegion([](Region* r) { r->ClearRemset(); });
  for (auto& [r, u] : quarantine_edges) {
    r->RemsetAddRegion(u);
  }
  auto rebuild_one = [&](Region* src) {
    uint32_t src_index = src->index();
    src->ForEachObject([&](Object* obj) {
      heap_->ForEachRefSlot(obj, [&](std::atomic<Object*>* slot) {
        Object* v = slot->load(std::memory_order_relaxed);
        if (v == nullptr) {
          return;
        }
        Region* vr = regions.RegionFor(v);
        if (vr == src) {
          return;
        }
        // Post-compaction there are no young regions; record all cross-region
        // edges. RemsetAddRegion is an atomic fetch_or, so source regions
        // rebuild in parallel.
        vr->RemsetAddRegion(src_index);
      });
    });
  };
  if (workers != nullptr) {
    workers->ParallelFor(occupied.size(), 1,
                         [&](uint32_t, size_t begin, size_t end) {
                           for (size_t i = begin; i < end; i++) {
                             rebuild_one(occupied[i]);
                           }
                         });
  } else {
    for (Region* src : occupied) {
      rebuild_one(src);
    }
  }
}

}  // namespace rolp
