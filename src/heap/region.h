// Heap regions (G1-style). The heap is a single reservation carved into
// equal-sized regions; each region is in exactly one state (free, eden,
// survivor, old, dynamic generation g, humongous head/continuation).
//
// Remembered sets are region-coarse: the write barrier records, in the
// *target* region, the index of the *source* region of a cross-region
// reference store (an atomic bitmap, one bit per heap region). At collection
// time, the union of the collection-set regions' remembered sets names the
// regions whose objects must be scanned for incoming references. This is
// coarser than card tables but is immune to dangling-slot problems when
// source regions are freed and reused, and inserts are a single fetch_or.
#ifndef SRC_HEAP_REGION_H_
#define SRC_HEAP_REGION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/heap/object.h"
#include "src/util/check.h"

namespace rolp {

enum class RegionKind : uint8_t {
  kFree,
  kEden,
  kSurvivor,
  kOld,
  kGen,            // NG2C dynamic generation (gen index 1..14)
  kHumongous,      // first region of a humongous object
  kHumongousCont,  // continuation of a humongous object
};

const char* RegionKindName(RegionKind kind);

class Region {
 public:
  Region() = default;
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  void Init(uint32_t index, char* begin, char* end, uint32_t num_heap_regions) {
    index_ = index;
    begin_ = begin;
    end_ = end;
    remset_words_ = (num_heap_regions + 63) / 64;
    remset_ = std::make_unique<std::atomic<uint64_t>[]>(remset_words_);
    Reset();
  }

  // Returns this region to the free state. Does not touch the backing memory.
  void Reset() {
    kind_.store(RegionKind::kFree, std::memory_order_relaxed);
    gen_.store(0, std::memory_order_relaxed);
    in_cset_ = false;
    evacuating_.store(false, std::memory_order_relaxed);
    evac_failed_ = false;
    quarantined_.store(false, std::memory_order_relaxed);
    quarantine_walkable_ = false;
    humongous_span_ = 0;
    top_.store(begin_, std::memory_order_relaxed);
    live_bytes_.store(0, std::memory_order_relaxed);
    ClearRemset();
  }

  uint32_t index() const { return index_; }
  char* begin() const { return begin_; }
  char* end() const { return end_; }
  char* top() const { return top_.load(std::memory_order_relaxed); }
  void set_top(char* t) { top_.store(t, std::memory_order_relaxed); }

  size_t capacity() const { return static_cast<size_t>(end_ - begin_); }
  size_t used() const { return static_cast<size_t>(top() - begin_); }
  size_t free_space() const { return static_cast<size_t>(end_ - top()); }

  // kind/gen are written under the region-manager lock (or inside a pause)
  // but read lock-free from mutator barriers and usage accounting, so the
  // fields are relaxed atomics: readers may see a momentarily stale kind,
  // which every reader already tolerates, but never a torn or invalid one.
  RegionKind kind() const { return kind_.load(std::memory_order_relaxed); }
  void set_kind(RegionKind kind) { kind_.store(kind, std::memory_order_relaxed); }
  uint8_t gen() const { return gen_.load(std::memory_order_relaxed); }
  void set_gen(uint8_t gen) { gen_.store(gen, std::memory_order_relaxed); }

  bool IsYoung() const {
    RegionKind k = kind();
    return k == RegionKind::kEden || k == RegionKind::kSurvivor;
  }
  bool IsFree() const { return kind() == RegionKind::kFree; }
  bool IsHumongous() const {
    RegionKind k = kind();
    return k == RegionKind::kHumongous || k == RegionKind::kHumongousCont;
  }
  // "Tenured" space for barrier purposes: old, dynamic gens, humongous.
  bool IsTenured() const {
    RegionKind k = kind();
    return k == RegionKind::kOld || k == RegionKind::kGen || IsHumongous();
  }

  bool in_cset() const { return in_cset_; }
  void set_in_cset(bool v) { in_cset_ = v; }

  // Concurrent-evacuation source state ("kEvacuating"): set on collection-set
  // regions inside the arming pause and cleared in the final remap pause.
  // Unlike in_cset_ (GC-private, only touched while the world is stopped or
  // by GC workers synchronized through the pause), this flag is read by every
  // mutator load barrier while the cycle runs, so it is atomic. A set flag
  // tells the barrier the object must be healed (copied on first touch)
  // before the mutator may use it.
  bool evacuating() const { return evacuating_.load(std::memory_order_relaxed); }
  void set_evacuating(bool v) { evacuating_.store(v, std::memory_order_relaxed); }

  // Set by FlagEvacFailedRegions (serial, after evacuation workers join) on
  // regions holding self-forwarded survivors; read and cleared by the
  // collector's cset sweep in the same pause.
  bool evac_failed() const { return evac_failed_; }
  void set_evac_failed(bool v) { evac_failed_ = v; }

  // Quarantine (set via RegionManager::Quarantine after a verifier finding):
  // the region is pinned — never a collection-set candidate, never freed —
  // so its surviving objects and any healed references into them stay valid.
  // `walkable` records whether the object tiling was still intact when the
  // region was quarantined; only walkable quarantined regions may be scanned
  // (as remset sources or for slot fix-up). Atomic because collectors read it
  // from parallel scan/evacuation workers.
  bool quarantined() const { return quarantined_.load(std::memory_order_relaxed); }
  void set_quarantined(bool v) { quarantined_.store(v, std::memory_order_relaxed); }
  bool quarantine_walkable() const { return quarantine_walkable_; }
  void set_quarantine_walkable(bool v) { quarantine_walkable_ = v; }
  // A quarantined region whose contents cannot be walked: skip in every scan.
  bool IsUnscannable() const { return quarantined() && !quarantine_walkable_; }

  uint32_t humongous_span() const { return humongous_span_; }
  void set_humongous_span(uint32_t n) { humongous_span_ = n; }

  bool Contains(const void* p) const { return p >= begin_ && p < end_; }

  // Single-owner bump allocation (TLAB-owned or GC-worker private buffer).
  char* BumpAlloc(size_t bytes) {
    char* t = top_.load(std::memory_order_relaxed);
    if (static_cast<size_t>(end_ - t) < bytes) {
      return nullptr;
    }
    top_.store(t + bytes, std::memory_order_relaxed);
    return t;
  }

  // Retreats the bump pointer after a lost evacuation race. Only valid for a
  // single-owner buffer whose last allocation was `bytes` at `p`.
  void UndoBumpAlloc(char* p, size_t bytes) {
    ROLP_DCHECK(top() == p + bytes);
    top_.store(p, std::memory_order_relaxed);
  }

  // Thread-safe bump allocation for shared regions (dynamic generations).
  char* AtomicBumpAlloc(size_t bytes) {
    char* t = top_.load(std::memory_order_relaxed);
    while (true) {
      if (static_cast<size_t>(end_ - t) < bytes) {
        return nullptr;
      }
      if (top_.compare_exchange_weak(t, t + bytes, std::memory_order_relaxed)) {
        return t;
      }
    }
  }

  // --- Live accounting (filled during marking) ---
  size_t live_bytes() const { return live_bytes_.load(std::memory_order_relaxed); }
  void set_live_bytes(size_t v) { live_bytes_.store(v, std::memory_order_relaxed); }
  void AddLiveBytes(size_t v) { live_bytes_.fetch_add(v, std::memory_order_relaxed); }
  double LiveRatio() const {
    size_t u = used();
    return u == 0 ? 0.0 : static_cast<double>(live_bytes()) / static_cast<double>(u);
  }

  // --- Remembered set (bitmap of source-region indices) ---
  void RemsetAddRegion(uint32_t src_region_index) {
    ROLP_DCHECK(src_region_index / 64 < remset_words_);
    std::atomic<uint64_t>& word = remset_[src_region_index / 64];
    uint64_t bit = 1ULL << (src_region_index % 64);
    // Cheap read-before-rmw: most stores hit already-set bits.
    if ((word.load(std::memory_order_relaxed) & bit) == 0) {
      word.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  bool RemsetContainsRegion(uint32_t src_region_index) const {
    return (remset_[src_region_index / 64].load(std::memory_order_relaxed) &
            (1ULL << (src_region_index % 64))) != 0;
  }

  template <typename Fn>
  void ForEachRemsetRegion(Fn&& fn) const {
    for (uint32_t w = 0; w < remset_words_; w++) {
      uint64_t bits = remset_[w].load(std::memory_order_relaxed);
      while (bits != 0) {
        uint32_t b = static_cast<uint32_t>(__builtin_ctzll(bits));
        fn(w * 64 + b);
        bits &= bits - 1;
      }
    }
  }

  size_t RemsetRegionCount() const {
    size_t n = 0;
    for (uint32_t w = 0; w < remset_words_; w++) {
      n += static_cast<size_t>(__builtin_popcountll(remset_[w].load(std::memory_order_relaxed)));
    }
    return n;
  }

  void ClearRemset() {
    for (uint32_t w = 0; w < remset_words_; w++) {
      remset_[w].store(0, std::memory_order_relaxed);
    }
  }

  // Walks objects laid out contiguously in [begin, top). The callback gets
  // each object; must not change object sizes.
  template <typename Fn>
  void ForEachObject(Fn&& fn) {
    char* p = begin_;
    char* t = top();
    while (p < t) {
      Object* obj = reinterpret_cast<Object*>(p);
      ROLP_DCHECK(obj->size_bytes >= kObjectHeaderSize);
      fn(obj);
      p += obj->size_bytes;
    }
  }

 private:
  uint32_t index_ = 0;
  char* begin_ = nullptr;
  char* end_ = nullptr;
  std::atomic<char*> top_{nullptr};
  std::atomic<RegionKind> kind_{RegionKind::kFree};
  std::atomic<uint8_t> gen_{0};
  bool in_cset_ = false;
  std::atomic<bool> evacuating_{false};
  bool evac_failed_ = false;
  std::atomic<bool> quarantined_{false};
  bool quarantine_walkable_ = false;
  uint32_t humongous_span_ = 0;
  std::atomic<size_t> live_bytes_{0};
  uint32_t remset_words_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> remset_;
};

}  // namespace rolp

#endif  // SRC_HEAP_REGION_H_
