// Object model and header (mark word) layout.
//
// Every heap object starts with a 16-byte header:
//   [0..7]   mark word (layout below, mirrors Fig. 2 of the paper)
//   [8..11]  class id
//   [12..15] total object size in bytes (header included, 8-byte aligned)
//
// Mark word, least significant bit first (paper Fig. 2, HotSpot-compatible):
//   bits 0-1   lock bits (00 = neutral, 11 = forwarded during evacuation)
//   bit  2     biased-lock bit
//   bits 3-6   age (number of GC cycles survived, saturates at 15)
//   bit  7     unused
//   bits 8-31  identity hash (24 bits)
//   bits 32-47 thread stack state   \  together: the 32-bit
//   bits 48-63 allocation site id   /  ROLP allocation context
//
// When an object is biased-locked, the thread id is written over bits 32-63,
// destroying the allocation context — exactly the sharing the paper describes.
// When an object is forwarded, the whole word holds the new address | 0b11, so
// the original mark must be copied to the new location first.
#ifndef SRC_HEAP_OBJECT_H_
#define SRC_HEAP_OBJECT_H_

#include <atomic>
#include <cstdint>

#include "src/util/check.h"

namespace rolp {

struct Object;

// Mark word bit manipulation. Free functions over a plain uint64_t so they
// can be applied to values loaded once from the atomic header.
namespace markword {

inline constexpr uint64_t kLockMask = 0x3;
inline constexpr uint64_t kLockNeutral = 0x0;
inline constexpr uint64_t kLockForwarded = 0x3;
inline constexpr uint64_t kBiasedBit = 1ULL << 2;
inline constexpr int kAgeShift = 3;
inline constexpr uint64_t kAgeMask = 0xF;
inline constexpr uint32_t kMaxAge = 15;
inline constexpr int kHashShift = 8;
inline constexpr uint64_t kHashMask = 0xFFFFFF;
inline constexpr int kContextShift = 32;
inline constexpr uint64_t kContextMask = 0xFFFFFFFF;

inline bool IsForwarded(uint64_t m) { return (m & kLockMask) == kLockForwarded; }

inline Object* ForwardedPtr(uint64_t m) {
  ROLP_DCHECK(IsForwarded(m));
  return reinterpret_cast<Object*>(m & ~kLockMask);
}

inline uint64_t EncodeForwarded(Object* to) {
  ROLP_DCHECK((reinterpret_cast<uint64_t>(to) & kLockMask) == 0);
  return reinterpret_cast<uint64_t>(to) | kLockForwarded;
}

inline bool IsBiased(uint64_t m) { return (m & kBiasedBit) != 0; }
inline uint64_t SetBiased(uint64_t m, uint32_t owner_thread_id) {
  // Biased locking stores the owning thread id in the upper 32 bits,
  // overwriting any allocation context (paper section 3.2.2).
  uint64_t cleared = m & ~(kContextMask << kContextShift);
  return (cleared | kBiasedBit) | (static_cast<uint64_t>(owner_thread_id) << kContextShift);
}
inline uint64_t ClearBiased(uint64_t m) {
  // Revoking the bias does not restore the context; it stays lost.
  return (m & ~kBiasedBit) & ~(kContextMask << kContextShift);
}
inline uint32_t BiasOwner(uint64_t m) { return static_cast<uint32_t>(m >> kContextShift); }

inline uint32_t Age(uint64_t m) { return static_cast<uint32_t>((m >> kAgeShift) & kAgeMask); }
inline uint64_t SetAge(uint64_t m, uint32_t age) {
  ROLP_DCHECK(age <= kMaxAge);
  return (m & ~(kAgeMask << kAgeShift)) | (static_cast<uint64_t>(age) << kAgeShift);
}
inline uint64_t IncrementAge(uint64_t m) {
  uint32_t age = Age(m);
  return age < kMaxAge ? SetAge(m, age + 1) : m;
}

inline uint32_t IdentityHash(uint64_t m) {
  return static_cast<uint32_t>((m >> kHashShift) & kHashMask);
}
inline uint64_t SetIdentityHash(uint64_t m, uint32_t hash) {
  return (m & ~(kHashMask << kHashShift)) |
         ((static_cast<uint64_t>(hash) & kHashMask) << kHashShift);
}

inline uint32_t Context(uint64_t m) { return static_cast<uint32_t>(m >> kContextShift); }
inline uint64_t SetContext(uint64_t m, uint32_t context) {
  return (m & ~(kContextMask << kContextShift)) |
         (static_cast<uint64_t>(context) << kContextShift);
}
inline uint32_t ContextSite(uint32_t context) { return context >> 16; }
inline uint32_t ContextTss(uint32_t context) { return context & 0xFFFF; }
inline uint32_t MakeContext(uint32_t site, uint32_t tss) {
  ROLP_DCHECK(site <= 0xFFFF && tss <= 0xFFFF);
  return (site << 16) | tss;
}

}  // namespace markword

using ClassId = uint32_t;

// Pseudo-class marking a free-list gap in CMS old regions. Free blocks carry
// a normal header (so region walks work) but have no fields and are never
// reachable; walkers that dereference class info must skip them.
inline constexpr ClassId kFreeBlockClassId = 0xFFFFFFFFu;

inline constexpr size_t kObjectAlignment = 8;
inline constexpr size_t kObjectHeaderSize = 16;

inline constexpr size_t AlignObjectSize(size_t bytes) {
  return (bytes + kObjectAlignment - 1) & ~(kObjectAlignment - 1);
}

// An object in the managed heap. Never constructed directly; laid out over
// region memory by the allocator.
struct Object {
  std::atomic<uint64_t> mark;
  ClassId class_id;
  uint32_t size_bytes;  // total, including header

  char* payload() { return reinterpret_cast<char*>(this) + kObjectHeaderSize; }
  const char* payload() const { return reinterpret_cast<const char*>(this) + kObjectHeaderSize; }

  uint32_t payload_size() const { return size_bytes - kObjectHeaderSize; }

  // Reference slot at the given payload byte offset.
  std::atomic<Object*>* RefSlotAt(uint32_t payload_offset) {
    ROLP_DCHECK(payload_offset + sizeof(Object*) <= payload_size());
    ROLP_DCHECK(payload_offset % sizeof(Object*) == 0);
    return reinterpret_cast<std::atomic<Object*>*>(payload() + payload_offset);
  }

  // Arrays store their element count in the first payload word.
  uint64_t ArrayLength() const {
    return *reinterpret_cast<const uint64_t*>(payload());
  }
  void SetArrayLength(uint64_t n) { *reinterpret_cast<uint64_t*>(payload()) = n; }

  // Reference-array element slot.
  std::atomic<Object*>* RefArraySlot(uint64_t index) {
    ROLP_DCHECK(index < ArrayLength());
    return reinterpret_cast<std::atomic<Object*>*>(payload() + sizeof(uint64_t) +
                                                   index * sizeof(Object*));
  }

  // Raw data pointer for data arrays (bytes start after the length word).
  char* DataArrayBytes() { return payload() + sizeof(uint64_t); }

  uint64_t LoadMark() const { return mark.load(std::memory_order_relaxed); }
  void StoreMark(uint64_t m) { mark.store(m, std::memory_order_relaxed); }
};

static_assert(sizeof(Object) == kObjectHeaderSize, "header must be exactly 16 bytes");

// Speculative object copy for racing copiers: another copier or healer may
// CAS `from`'s mark word (and, once it is forwarded, heal its ref slots)
// while this copy reads the source. A copy that loses the forwarding CAS is
// discarded, so stale words are harmless, but the reads must be atomic to be
// well-defined: objects are 8-byte aligned and sized, so copy in relaxed
// 8-byte words instead of memcpy.
inline void CopyObjectWords(char* to, Object* from, size_t size) {
  uint64_t* src_words = reinterpret_cast<uint64_t*>(from);
  uint64_t* dst_words = reinterpret_cast<uint64_t*>(to);
  for (size_t w = 0; w < size / sizeof(uint64_t); w++) {
    dst_words[w] = std::atomic_ref<uint64_t>(src_words[w]).load(std::memory_order_relaxed);
  }
}

// Turns a dead object (a stale original, a lost-race duplicate, an unmarked
// object) into a free block of the same size: the region stays walkable, and
// slot walks and the verifier skip it.
inline void ScrubToFreeBlock(Object* obj) {
  obj->StoreMark(0);
  obj->class_id = kFreeBlockClassId;
}

// Payload size needed for a reference array / data array of n elements.
inline constexpr size_t RefArrayPayloadBytes(uint64_t n) {
  return sizeof(uint64_t) + n * sizeof(Object*);
}
inline constexpr size_t DataArrayPayloadBytes(uint64_t n) { return sizeof(uint64_t) + n; }

}  // namespace rolp

#endif  // SRC_HEAP_OBJECT_H_
