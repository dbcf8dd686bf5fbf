// Class descriptors: the GC needs to know, for every object, which payload
// offsets hold references. Workloads register their classes at startup.
//
// Lookups are lock-free: Get runs on every scanned object (ForEachRefSlot in
// marking, evacuation, verification and compaction) and on every mutator
// allocation, so it must not write a shared cache line. Registration stays
// serialized under a lock and publishes each new class with a release store
// of the class count; Get pairs it with an acquire load.
#ifndef SRC_HEAP_CLASS_REGISTRY_H_
#define SRC_HEAP_CLASS_REGISTRY_H_

#include <atomic>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "src/heap/object.h"
#include "src/util/check.h"
#include "src/util/spinlock.h"

namespace rolp {

enum class ClassKind : uint8_t {
  kInstance,   // fixed payload size, explicit reference offsets
  kRefArray,   // variable length array of references
  kDataArray,  // variable length array of raw bytes (no references)
};

struct ClassInfo {
  ClassId id = 0;
  std::string name;
  ClassKind kind = ClassKind::kInstance;
  uint32_t payload_size = 0;             // kInstance only
  std::vector<uint32_t> ref_offsets;     // kInstance only, payload byte offsets
};

class ClassRegistry {
 public:
  ClassRegistry();

  // Registers a fixed-size instance class. ref_offsets are payload byte
  // offsets of reference fields; each must be 8-aligned and within
  // payload_size.
  ClassId RegisterInstance(const std::string& name, uint32_t payload_size,
                           std::vector<uint32_t> ref_offsets);

  ClassId RegisterRefArray(const std::string& name);
  ClassId RegisterDataArray(const std::string& name);

  // Any thread, concurrently with registration. The reference stays valid
  // for the registry's lifetime.
  const ClassInfo& Get(ClassId id) const {
    ROLP_CHECK(id < count_.load(std::memory_order_acquire));
    return Slot(id);
  }
  size_t NumClasses() const { return count_.load(std::memory_order_acquire); }

  // Pre-registered array classes available on every heap.
  ClassId ref_array_class() const { return ref_array_class_; }
  ClassId data_array_class() const { return data_array_class_; }

 private:
  // Segment k holds kFirstSegment << k classes, so segments never move (Get
  // hands out stable references). id + kFirstSegment fits in 33 bits, so
  // kNumSegments of them cover every ClassId below kFreeBlockClassId.
  static constexpr int kFirstSegmentBits = 6;
  static constexpr size_t kFirstSegment = size_t{1} << kFirstSegmentBits;
  static constexpr int kNumSegments = 33 - kFirstSegmentBits;

  ClassInfo& Slot(ClassId id) const {
    size_t j = size_t{id} + kFirstSegment;
    int top = std::bit_width(j) - 1;
    return segments_[top - kFirstSegmentBits][j - (size_t{1} << top)];
  }

  ClassId RegisterLocked(ClassInfo info);

  SpinLock lock_;  // serializes registration only
  std::unique_ptr<ClassInfo[]> segments_[kNumSegments];
  std::atomic<uint32_t> count_{0};
  ClassId ref_array_class_;
  ClassId data_array_class_;
};

}  // namespace rolp

#endif  // SRC_HEAP_CLASS_REGISTRY_H_
