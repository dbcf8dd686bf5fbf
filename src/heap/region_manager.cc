#include "src/heap/region_manager.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>

#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/env.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"

namespace rolp {

namespace {

// Every arena extent starts on a 2MB boundary (when the region geometry
// permits) so transparent huge pages can back whole extents.
constexpr size_t kArenaAlign = 2 * 1024 * 1024;

// Round-robin home-arena assignment: each thread sticks to one arena so the
// common case is an uncontended pop from "its" free list. The token is
// process-global (threads outlive any one RegionManager); each manager maps
// it into its own arena count.
std::atomic<uint32_t> g_next_home_token{0};
thread_local uint32_t g_home_token = 0xffffffffu;
thread_local int g_home_arena_override = -1;

}  // namespace

const char* RegionKindName(RegionKind kind) {
  switch (kind) {
    case RegionKind::kFree:
      return "free";
    case RegionKind::kEden:
      return "eden";
    case RegionKind::kSurvivor:
      return "survivor";
    case RegionKind::kOld:
      return "old";
    case RegionKind::kGen:
      return "gen";
    case RegionKind::kHumongous:
      return "humongous";
    case RegionKind::kHumongousCont:
      return "humongous-cont";
  }
  return "?";
}

int EnvShardCount() {
  int64_t shards = EnvInt64("ROLP_SHARDS", 1);
  return shards > 0 ? static_cast<int>(shards) : 1;
}

HeapArenaOptions HeapArenaOptions::FromEnv() {
  HeapArenaOptions o;
  int64_t arenas = EnvInt64("ROLP_HEAP_ARENAS", EnvShardCount());
  o.arenas = arenas > 0 ? static_cast<size_t>(arenas) : 1;
  o.uncommit_ms = EnvInt64("ROLP_HEAP_UNCOMMIT_MS", 0);
  return o;
}

RegionManager::RegionManager(size_t heap_bytes, size_t region_bytes,
                             const HeapArenaOptions& arena_opts)
    : region_bytes_(region_bytes), opts_(arena_opts) {
  ROLP_CHECK(std::has_single_bit(region_bytes));
  ROLP_CHECK(region_bytes >= 64 * 1024);
  num_regions_ = (heap_bytes + region_bytes - 1) / region_bytes;
  ROLP_CHECK(num_regions_ >= 4);

  // Over-reserve by one alignment unit, then trim the slack so the heap base
  // itself is 2MB-aligned — a prerequisite for whole-extent huge pages.
  size_t size = num_regions_ * region_bytes_;
  size_t raw_len = size + kArenaAlign;
  void* mem = mmap(nullptr, raw_len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ROLP_CHECK_MSG(mem != MAP_FAILED, "heap reservation failed");
  char* raw = static_cast<char*>(mem);
  char* aligned = reinterpret_cast<char*>(
      (reinterpret_cast<uintptr_t>(raw) + kArenaAlign - 1) & ~(kArenaAlign - 1));
  if (aligned != raw) {
    munmap(raw, static_cast<size_t>(aligned - raw));
  }
  size_t tail = raw_len - static_cast<size_t>(aligned - raw) - size;
  if (tail > 0) {
    munmap(aligned + size, tail);
  }
  base_ = aligned;
  map_size_ = size;

  // Arena count: at least 4 regions per arena so each holds useful capacity,
  // and at most 255 (arena_of_ entries are one byte).
  size_t max_arenas = std::min<size_t>(255, std::max<size_t>(1, num_regions_ / 4));
  size_t n_arenas = std::clamp<size_t>(opts_.arenas, 1, max_arenas);

  // Extent boundaries: an even split, rounded down to 2MB multiples when the
  // geometry allows (consecutive raw boundaries then differ by >= align, so
  // rounding keeps them strictly increasing).
  size_t align_regions = std::max<size_t>(1, kArenaAlign / region_bytes_);
  bool align_extents = num_regions_ >= n_arenas * align_regions;
  std::vector<uint32_t> bounds(n_arenas + 1);
  for (size_t i = 0; i <= n_arenas; i++) {
    size_t b = num_regions_ * i / n_arenas;
    if (align_extents && i != n_arenas) {
      b = b / align_regions * align_regions;
    }
    bounds[i] = static_cast<uint32_t>(b);
  }

  regions_ = std::make_unique<Region[]>(num_regions_);
  arena_of_.resize(num_regions_);
  committed_.assign(num_regions_, 1);
  free_since_ns_.assign(num_regions_, NowNs());
  arenas_.reserve(n_arenas);
  for (size_t a = 0; a < n_arenas; a++) {
    auto arena = std::make_unique<Arena>();
    arena->first_region = bounds[a];
    arena->end_region = bounds[a + 1];
    arena->free_list.reserve(arena->end_region - arena->first_region);
    // Push in reverse so regions are handed out in ascending address order.
    for (uint32_t i = arena->end_region; i > arena->first_region; i--) {
      uint32_t idx = i - 1;
      regions_[idx].Init(idx, base_ + static_cast<size_t>(idx) * region_bytes_,
                         base_ + static_cast<size_t>(idx + 1) * region_bytes_,
                         static_cast<uint32_t>(num_regions_));
      arena_of_[idx] = static_cast<uint8_t>(a);
      arena->free_list.push_back(idx);
    }
    arenas_.push_back(std::move(arena));
  }
  total_free_.store(num_regions_, std::memory_order_relaxed);

  if (opts_.uncommit_ms > 0) {
    uncommit_thread_ = std::thread([this] { UncommitThreadBody(); });
  }
}

RegionManager::~RegionManager() {
  if (uncommit_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> g(uncommit_mu_);
      uncommit_stop_ = true;
    }
    uncommit_cv_.notify_all();
    uncommit_thread_.join();
  }
  if (base_ != nullptr) {
    munmap(base_, map_size_);
  }
}

size_t RegionManager::HomeArena() const {
  if (g_home_arena_override >= 0) {
    return static_cast<size_t>(g_home_arena_override) % arenas_.size();
  }
  if (g_home_token == 0xffffffffu) {
    g_home_token = g_next_home_token.fetch_add(1, std::memory_order_relaxed);
  }
  return g_home_token % arenas_.size();
}

void RegionManager::SetHomeArenaForTest(int arena) { g_home_arena_override = arena; }

void RegionManager::LockArena(Arena& a) const {
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (a.lock.try_lock()) {
    return;
  }
  uint64_t cpu0 = ThreadCpuNs();
  a.lock.lock();
  lock_stall_ns_.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
}

Region* RegionManager::PopFromArena(Arena& a) {
  LockArena(a);
  if (a.free_list.empty()) {
    a.lock.unlock();
    return nullptr;
  }
  Region* r = &regions_[a.free_list.back()];
  a.free_list.pop_back();
  a.lock.unlock();
  ROLP_DCHECK(r->IsFree());
  return r;
}

Region* RegionManager::AllocateRegion(RegionKind kind, uint8_t gen, bool gc_internal) {
  ROLP_CHECK(kind != RegionKind::kFree && kind != RegionKind::kHumongousCont);
  if (ROLP_FAULT_POINT("heap.region.oom")) {
    return nullptr;  // simulated heap exhaustion
  }
  // Claim one unit of free-pool entitlement. The evacuation reserve is
  // enforced here, on the global counter, so it stays one heap-wide guarantee
  // regardless of how free regions are spread across arenas.
  size_t floor_regions = gc_internal ? 0 : evac_reserve_;
  size_t cur = total_free_.load(std::memory_order_relaxed);
  do {
    if (cur <= floor_regions) {
      return nullptr;
    }
  } while (!total_free_.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed));

  size_t n = arenas_.size();
  size_t home = HomeArena();
  Region* r = nullptr;
  for (;;) {
    for (size_t i = 0; i < n && r == nullptr; i++) {
      r = PopFromArena(*arenas_[(home + i) % n]);
    }
    if (r != nullptr) {
      break;
    }
    // Entitled but every list was momentarily empty: frees push before they
    // increment the counter, and the uncommit sweeper holds regions out of
    // the lists only for the duration of a madvise call. Yield until one of
    // the in-flight entries lands.
    std::this_thread::yield();
  }

  // All slow work — commit bookkeeping, fault evaluation, kind transition —
  // happens after the pop, outside any arena lock.
  uint32_t idx = r->index();
  if (committed_[idx] == 0) {
    if (ROLP_FAULT_POINT("heap.region.commit")) {
      // Simulated commit failure (mmap-level ENOMEM): undo the pop and report
      // recoverable exhaustion to the caller's GC-and-retry path.
      Arena& a = *arenas_[arena_of_[idx]];
      LockArena(a);
      a.free_list.push_back(idx);
      a.lock.unlock();
      total_free_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    committed_[idx] = 1;
    uncommitted_now_.fetch_sub(1, std::memory_order_relaxed);
    commits_.fetch_add(1, std::memory_order_relaxed);
  }
  r->set_kind(kind);
  r->set_gen(gen);
  if (IsTenuredKind(kind)) {
    tenured_regions_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

Region* RegionManager::AllocateHumongous(size_t object_bytes) {
  if (ROLP_FAULT_POINT("heap.humongous.oom")) {
    return nullptr;  // simulated: no contiguous run available
  }
  size_t needed = (object_bytes + region_bytes_ - 1) / region_bytes_;
  // Entitlement for the whole run; leaves the evacuation reserve intact.
  size_t cur = total_free_.load(std::memory_order_relaxed);
  do {
    if (cur < needed + evac_reserve_) {
      return nullptr;  // would eat into the evacuation reserve
    }
  } while (!total_free_.compare_exchange_weak(cur, cur - needed, std::memory_order_relaxed));

  size_t n = arenas_.size();
  size_t home = HomeArena();
  uint32_t start = 0;
  bool found = false;
  for (size_t i = 0; i < n && !found; i++) {
    Arena& a = *arenas_[(home + i) % n];
    LockArena(a);
    // First fit over this arena's free list (sorted copy): runs never
    // straddle arena boundaries. Scanning the list rather than the region
    // table means a region mid-free (kind already reset, not yet pushed)
    // can never be claimed twice.
    std::vector<uint32_t> sorted(a.free_list);
    std::sort(sorted.begin(), sorted.end());
    size_t run = 0;
    for (size_t k = 0; k < sorted.size(); k++) {
      if (run == 0 || sorted[k] != sorted[k - 1] + 1) {
        run = 1;
        start = sorted[k];
      } else {
        run++;
      }
      if (run == needed) {
        start = sorted[k] - static_cast<uint32_t>(needed) + 1;
        found = true;
        break;
      }
    }
    if (found) {
      for (uint32_t j = start; j < start + needed; j++) {
        regions_[j].set_kind(j == start ? RegionKind::kHumongous : RegionKind::kHumongousCont);
        for (size_t k = 0; k < a.free_list.size(); k++) {
          if (a.free_list[k] == j) {
            a.free_list[k] = a.free_list.back();
            a.free_list.pop_back();
            break;
          }
        }
      }
    }
    a.lock.unlock();
  }
  if (!found) {
    total_free_.fetch_add(needed, std::memory_order_relaxed);
    return nullptr;
  }

  // Commit bookkeeping outside the lock; the run is exclusively ours now.
  for (uint32_t j = start; j < start + needed; j++) {
    if (committed_[j] != 0) {
      continue;
    }
    if (ROLP_FAULT_POINT("heap.region.commit")) {
      // Roll the whole run back: reset kinds, return every region.
      Arena& a = *arenas_[arena_of_[start]];
      for (uint32_t u = start; u < start + needed; u++) {
        regions_[u].Reset();
      }
      LockArena(a);
      for (uint32_t u = start; u < start + needed; u++) {
        a.free_list.push_back(u);
      }
      a.lock.unlock();
      total_free_.fetch_add(needed, std::memory_order_relaxed);
      return nullptr;
    }
    committed_[j] = 1;
    uncommitted_now_.fetch_sub(1, std::memory_order_relaxed);
    commits_.fetch_add(1, std::memory_order_relaxed);
  }

  Region* head = &regions_[start];
  head->set_humongous_span(static_cast<uint32_t>(needed));
  head->set_top(head->begin() + object_bytes);
  tenured_regions_.fetch_add(needed, std::memory_order_relaxed);
  return head;
}

void RegionManager::FreeRegion(Region* region) {
  // Quarantined regions are pinned: freeing one would invalidate the healed
  // references that made quarantine survivable.
  ROLP_CHECK_MSG(!region->quarantined(), "attempt to free a quarantined region");
  size_t span = 1;
  if (region->kind() == RegionKind::kHumongous) {
    span = region->humongous_span();
  }
  ROLP_CHECK(region->kind() != RegionKind::kHumongousCont);
  uint32_t first = region->index();
  ROLP_DCHECK(arena_of_[first] == arena_of_[first + span - 1]);
  uint64_t now = NowNs();
  // Reset + accounting outside the arena lock: the caller owns the regions
  // until they are pushed, and nothing scans the region table for free kinds.
  for (size_t j = 0; j < span; j++) {
    Region* r = &regions_[first + j];
    ROLP_DCHECK(!r->IsFree());
    if (IsTenuredKind(r->kind())) {
      tenured_regions_.fetch_sub(1, std::memory_order_relaxed);
    }
    r->Reset();
    free_since_ns_[first + j] = now;
  }
  Arena& a = *arenas_[arena_of_[first]];
  LockArena(a);
  for (size_t j = 0; j < span; j++) {
    a.free_list.push_back(static_cast<uint32_t>(first + j));
  }
  a.lock.unlock();
  total_free_.fetch_add(span, std::memory_order_relaxed);
}

void RegionManager::RetireToOld(Region* region) {
  if (!IsTenuredKind(region->kind())) {
    tenured_regions_.fetch_add(1, std::memory_order_relaxed);
  }
  region->set_kind(RegionKind::kOld);
  region->set_gen(0);
}

void RegionManager::Quarantine(Region* region, bool walkable) {
  if (region->quarantined()) {
    if (!walkable && region->quarantine_walkable()) {
      // Escalation: a later finding showed the tiling is broken after all.
      region->set_quarantine_walkable(false);
      std::lock_guard<SpinLock> guard(quarantine_lock_);
      unscannable_quarantined_.push_back(region->index());
    }
    return;
  }
  ROLP_LOG_ERROR("quarantining region %u (%s, %zu bytes used, walkable=%d)",
                 region->index(), RegionKindName(region->kind()), region->used(), walkable);
  if (!region->IsHumongous()) {
    RetireToOld(region);
  }
  region->set_in_cset(false);
  region->set_evac_failed(false);
  region->set_quarantine_walkable(walkable);
  region->set_quarantined(true);
  quarantined_regions_.fetch_add(1, std::memory_order_relaxed);
  if (!walkable) {
    std::lock_guard<SpinLock> guard(quarantine_lock_);
    unscannable_quarantined_.push_back(region->index());
  }
}

void RegionManager::Unquarantine(Region* region) {
  if (!region->quarantined() || !region->quarantine_walkable()) {
    return;
  }
  ROLP_LOG_INFO("rehabilitating quarantined region %u (full-liveness collection)",
                region->index());
  region->set_quarantined(false);
  region->set_quarantine_walkable(false);
  quarantined_regions_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<uint32_t> RegionManager::UnscannableQuarantined() const {
  std::lock_guard<SpinLock> guard(quarantine_lock_);
  return unscannable_quarantined_;
}

bool RegionManager::PinnedByQuarantine(const Region* region) const {
  std::lock_guard<SpinLock> guard(quarantine_lock_);
  for (uint32_t idx : unscannable_quarantined_) {
    if (region->RemsetContainsRegion(idx)) {
      return true;
    }
  }
  return false;
}

Region* RegionManager::RegionFor(const void* p) {
  ROLP_DCHECK(Contains(p));
  size_t idx = static_cast<size_t>(static_cast<const char*>(p) - base_) / region_bytes_;
  return &regions_[idx];
}

const Region* RegionManager::RegionFor(const void* p) const {
  return const_cast<RegionManager*>(this)->RegionFor(p);
}

size_t RegionManager::ArenaFreeRegions(size_t a) const {
  Arena& arena = *arenas_[a];
  LockArena(arena);
  size_t n = arena.free_list.size();
  arena.lock.unlock();
  return n;
}

size_t RegionManager::UncommitIdleRegions(uint64_t now_ns) {
  // With uncommit_ms == 0 there is no background sweeper, but direct calls
  // (tests, explicit trims) still work: every free region counts as idle.
  uint64_t idle_ns =
      opts_.uncommit_ms > 0 ? static_cast<uint64_t>(opts_.uncommit_ms) * 1000000ull : 0;
  size_t keep = std::max(evac_reserve_, opts_.soft_min_regions);
  size_t committed_free = total_free_.load(std::memory_order_relaxed);
  size_t unc = uncommitted_now_.load(std::memory_order_relaxed);
  committed_free = committed_free > unc ? committed_free - unc : 0;
  size_t allowance = committed_free > keep ? committed_free - keep : 0;
  size_t done = 0;
  std::vector<uint32_t> victims;
  for (auto& arena_ptr : arenas_) {
    if (allowance == 0) {
      break;
    }
    Arena& a = *arena_ptr;
    victims.clear();
    LockArena(a);
    for (uint32_t idx : a.free_list) {
      if (victims.size() >= allowance) {
        break;
      }
      if (committed_[idx] != 0 && now_ns >= free_since_ns_[idx] + idle_ns) {
        victims.push_back(idx);
      }
    }
    // Pull the victims out of the list so no allocation can hand out a region
    // whose backing is mid-MADV_DONTNEED; entitled allocators briefly yield.
    for (uint32_t idx : victims) {
      for (size_t k = 0; k < a.free_list.size(); k++) {
        if (a.free_list[k] == idx) {
          a.free_list[k] = a.free_list.back();
          a.free_list.pop_back();
          break;
        }
      }
    }
    a.lock.unlock();

    for (uint32_t idx : victims) {
      if (ROLP_FAULT_POINT("heap.region.uncommit")) {
        continue;  // simulated madvise failure: region simply stays committed
      }
      char* lo = base_ + static_cast<size_t>(idx) * region_bytes_;
      if (madvise(lo, region_bytes_, MADV_DONTNEED) != 0) {
        continue;
      }
      committed_[idx] = 0;
      uncommitted_now_.fetch_add(1, std::memory_order_relaxed);
      uncommits_.fetch_add(1, std::memory_order_relaxed);
      ROLP_DCHECK(allowance > 0);
      allowance--;
      done++;
    }

    LockArena(a);
    for (uint32_t idx : victims) {
      a.free_list.push_back(idx);
    }
    a.lock.unlock();
  }
  return done;
}

void RegionManager::UncommitThreadBody() {
  int64_t period_ms = std::max<int64_t>(opts_.uncommit_ms / 4, 10);
  std::unique_lock<std::mutex> lk(uncommit_mu_);
  while (!uncommit_stop_) {
    if (uncommit_cv_.wait_for(lk, std::chrono::milliseconds(period_ms),
                              [this] { return uncommit_stop_; })) {
      break;
    }
    lk.unlock();
    UncommitIdleRegions(NowNs());
    lk.lock();
  }
}

RegionManager::Usage RegionManager::ComputeUsage() const {
  Usage u;
  for (size_t i = 0; i < num_regions_; i++) {
    const Region& r = regions_[i];
    switch (r.kind()) {
      case RegionKind::kFree:
        break;
      case RegionKind::kEden:
        u.eden_regions++;
        u.used_bytes += r.used();
        break;
      case RegionKind::kSurvivor:
        u.survivor_regions++;
        u.used_bytes += r.used();
        break;
      case RegionKind::kOld:
        u.old_regions++;
        u.used_bytes += r.used();
        break;
      case RegionKind::kGen:
        u.gen_regions++;
        u.used_bytes += r.used();
        break;
      case RegionKind::kHumongous:
      case RegionKind::kHumongousCont:
        u.humongous_regions++;
        u.used_bytes += r.used();
        break;
    }
  }
  return u;
}

}  // namespace rolp
