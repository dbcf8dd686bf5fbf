#include "src/heap/heap.h"

#include <cstring>

#include "src/util/fault_injection.h"
#include "src/util/random.h"

namespace rolp {

Heap::Heap(const HeapConfig& config) : config_(config) {
  regions_ = std::make_unique<RegionManager>(config.heap_bytes, config.region_bytes,
                                             config.arenas);
  if (config.evac_reserve_regions > 0 &&
      config.evac_reserve_regions < regions_->num_regions() / 2) {
    regions_->set_evac_reserve(config.evac_reserve_regions);
  }
  RegionManager* rm = regions_.get();
  governor_ = std::make_unique<HeapGovernor>(GovernorConfig::FromEnv(), [rm] {
    return 1.0 - static_cast<double>(rm->free_regions()) /
                     static_cast<double>(rm->num_regions());
  });
  classes_ = std::make_unique<ClassRegistry>();
  barriers_ = std::make_unique<RemsetBarrierSet>(regions_.get());
}

Heap::~Heap() = default;

void Heap::SetBarrierSet(std::unique_ptr<BarrierSet> barriers) {
  barriers_ = std::move(barriers);
  RefreshBarrierMode();
}

void Heap::RefreshBarrierMode() {
  load_barrier_enabled_.store(barriers_->needs_load_barrier(), std::memory_order_release);
}

size_t Heap::InstanceAllocSize(ClassId cls) const {
  const ClassInfo& info = classes_->Get(cls);
  ROLP_CHECK(info.kind == ClassKind::kInstance);
  return AlignObjectSize(kObjectHeaderSize + info.payload_size);
}

size_t Heap::RefArrayAllocSize(uint64_t length) const {
  return AlignObjectSize(kObjectHeaderSize + RefArrayPayloadBytes(length));
}

size_t Heap::DataArrayAllocSize(uint64_t length) const {
  return AlignObjectSize(kObjectHeaderSize + DataArrayPayloadBytes(length));
}

namespace {

// Identity-hash stream: one SplitMix64 state per thread so the allocation
// fast lane never pays a shared read-modify-write per object. Streams are
// decorrelated by drawing each thread's start state from a process-wide
// counter — one RMW per thread lifetime instead of one per allocation.
std::atomic<uint64_t> identity_hash_stream{0x517cc1b727220a95ULL};

uint32_t NextIdentityHash() {
  thread_local uint64_t state =
      identity_hash_stream.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed);
  return static_cast<uint32_t>(SplitMix64(&state)) & markword::kHashMask;
}

}  // namespace

Object* Heap::InitializeObject(char* mem, ClassId cls, size_t total_bytes, uint64_t array_length,
                               uint32_t context) {
  ROLP_DCHECK(reinterpret_cast<uintptr_t>(mem) % kObjectAlignment == 0);
  ROLP_DCHECK(total_bytes >= kObjectHeaderSize);
  Object* obj = reinterpret_cast<Object*>(mem);
  // Zero the payload: mirrors the JVM's guaranteed zero-initialization and is
  // part of the real allocation cost.
  std::memset(mem + kObjectHeaderSize, 0, total_bytes - kObjectHeaderSize);
  obj->class_id = cls;
  obj->size_bytes = static_cast<uint32_t>(total_bytes);
  uint64_t mark = markword::SetIdentityHash(0, NextIdentityHash());
  mark = markword::SetContext(mark, context);
  obj->StoreMark(mark);
  const ClassInfo& info = classes_->Get(cls);
  if (info.kind != ClassKind::kInstance) {
    obj->SetArrayLength(array_length);
  }
  // Allocated-bytes accounting is the caller's job (RuntimeThread batches it
  // per thread and drains at safepoints/detach — see AddAllocatedBytes), and
  // the class lookup above is a lock-free read of a line that only class
  // registration writes, so this part of the allocation fast lane writes no
  // shared cache line.
  return obj;
}

void Heap::UpdateMaxUsedBytes() {
  uint64_t used = regions_->ComputeUsage().used_bytes;
  uint64_t cur = max_used_bytes_.load(std::memory_order_relaxed);
  while (used > cur &&
         !max_used_bytes_.compare_exchange_weak(cur, used, std::memory_order_relaxed)) {
  }
}

void RemsetBarrierSet::StoreBarrier(Object* src, std::atomic<Object*>* slot, Object* value) {
  if (value == nullptr || src == nullptr) {
    return;
  }
  Region* src_region = regions_->RegionFor(src);
  Region* dst_region = regions_->RegionFor(value);
  if (src_region == dst_region) {
    return;
  }
  // Young-to-young pointers need no remembered set: the young generation is
  // always collected as a whole.
  if (src_region->IsYoung() && dst_region->IsYoung()) {
    return;
  }
  if (ROLP_FAULT_POINT("heap.remset.drop")) {
    return;  // simulated lost barrier: the edge is never recorded
  }
  dst_region->RemsetAddRegion(src_region->index());
}

}  // namespace rolp
