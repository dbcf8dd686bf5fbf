#include "src/heap/class_registry.h"

#include <bit>
#include <mutex>

#include "src/util/check.h"

namespace rolp {

ClassRegistry::ClassRegistry() {
  ref_array_class_ = RegisterRefArray("Object[]");
  data_array_class_ = RegisterDataArray("byte[]");
}

ClassId ClassRegistry::RegisterInstance(const std::string& name, uint32_t payload_size,
                                        std::vector<uint32_t> ref_offsets) {
  ROLP_CHECK(payload_size % kObjectAlignment == 0);
  for (uint32_t off : ref_offsets) {
    ROLP_CHECK(off % sizeof(Object*) == 0);
    ROLP_CHECK(off + sizeof(Object*) <= payload_size);
  }
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kInstance;
  info.payload_size = payload_size;
  info.ref_offsets = std::move(ref_offsets);
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterRefArray(const std::string& name) {
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kRefArray;
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterDataArray(const std::string& name) {
  ClassInfo info;
  info.name = name;
  info.kind = ClassKind::kDataArray;
  return RegisterLocked(std::move(info));
}

ClassId ClassRegistry::RegisterLocked(ClassInfo info) {
  std::lock_guard<SpinLock> guard(lock_);
  uint32_t id = count_.load(std::memory_order_relaxed);
  ROLP_CHECK(id < kFreeBlockClassId);
  size_t j = size_t{id} + kFirstSegment;
  if (std::has_single_bit(j)) {
    // First slot of segment k: it holds j = kFirstSegment << k classes.
    segments_[std::bit_width(j) - 1 - kFirstSegmentBits] = std::make_unique<ClassInfo[]>(j);
  }
  info.id = id;
  Slot(id) = std::move(info);
  // Publish: the slot (and its segment pointer) are written before the count.
  count_.store(id + 1, std::memory_order_release);
  return id;
}

}  // namespace rolp
