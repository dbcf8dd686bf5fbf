#include "src/heap/class_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace rolp {
namespace {

TEST(ClassRegistryTest, PreRegisteredArrayClasses) {
  ClassRegistry reg;
  EXPECT_EQ(reg.Get(reg.ref_array_class()).kind, ClassKind::kRefArray);
  EXPECT_EQ(reg.Get(reg.data_array_class()).kind, ClassKind::kDataArray);
  EXPECT_EQ(reg.NumClasses(), 2u);
}

TEST(ClassRegistryTest, RegisterInstanceClass) {
  ClassRegistry reg;
  ClassId id = reg.RegisterInstance("Foo", 32, {0, 8});
  const ClassInfo& info = reg.Get(id);
  EXPECT_EQ(info.name, "Foo");
  EXPECT_EQ(info.kind, ClassKind::kInstance);
  EXPECT_EQ(info.payload_size, 32u);
  EXPECT_EQ(info.ref_offsets.size(), 2u);
}

TEST(ClassRegistryTest, IdsAreSequential) {
  ClassRegistry reg;
  ClassId a = reg.RegisterInstance("A", 8, {});
  ClassId b = reg.RegisterInstance("B", 8, {});
  EXPECT_EQ(b, a + 1);
}

TEST(ClassRegistryTest, ReferencesStayValidAcrossRegistrations) {
  ClassRegistry reg;
  ClassId a = reg.RegisterInstance("A", 8, {});
  const ClassInfo& info_a = reg.Get(a);
  for (int i = 0; i < 1000; i++) {
    reg.RegisterInstance("X" + std::to_string(i), 8, {});
  }
  EXPECT_EQ(info_a.name, "A");
}

// Lookups are lock-free and race with registration: readers must always see
// a fully published class for every id below NumClasses().
TEST(ClassRegistryTest, ConcurrentLookupsSeePublishedClasses) {
  constexpr int kClasses = 2000;
  constexpr int kReaders = 4;
  ClassRegistry reg;
  const ClassId first = static_cast<ClassId>(reg.NumClasses());
  // Class i of the stream: instance classes with i % 5 + 1 reference slots,
  // every seventh one a reference array.
  auto name_of = [](int i) { return "C" + std::to_string(i); };
  auto is_array = [](int i) { return i % 7 == 6; };
  auto refs_of = [](int i) { return static_cast<uint32_t>(i % 5 + 1); };

  std::atomic<int> readers_ready{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> lookups{0};
  auto check = [&](ClassId id) {
    const ClassInfo& info = reg.Get(id);
    if (id < first) {
      return info.id == id;
    }
    int i = static_cast<int>(id - first);
    if (info.id != id || info.name != name_of(i)) {
      return false;
    }
    if (is_array(i)) {
      return info.kind == ClassKind::kRefArray && info.ref_offsets.empty();
    }
    if (info.kind != ClassKind::kInstance || info.payload_size != 8 * refs_of(i) ||
        info.ref_offsets.size() != refs_of(i)) {
      return false;
    }
    for (uint32_t k = 0; k < refs_of(i); k++) {
      if (info.ref_offsets[k] != 8 * k) {
        return false;
      }
    }
    return true;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      uint64_t x = 0x9e3779b97f4a7c15ULL * (r + 1);
      readers_ready.fetch_add(1, std::memory_order_relaxed);
      bool last_pass = false;
      while (!last_pass) {
        last_pass = writer_done.load(std::memory_order_acquire);
        size_t n = reg.NumClasses();
        // The newest class (just published) and a pseudo-random older one.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for (ClassId id : {static_cast<ClassId>(n - 1), static_cast<ClassId>(x % n)}) {
          if (!check(id)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        lookups.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  // Register only once every reader is looping, so lookups race the writes.
  while (readers_ready.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kClasses; i++) {
    ClassId id;
    if (is_array(i)) {
      id = reg.RegisterRefArray(name_of(i));
    } else {
      std::vector<uint32_t> offsets;
      for (uint32_t k = 0; k < refs_of(i); k++) {
        offsets.push_back(8 * k);
      }
      id = reg.RegisterInstance(name_of(i), 8 * refs_of(i), std::move(offsets));
    }
    ASSERT_EQ(id, first + static_cast<ClassId>(i));
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_EQ(reg.NumClasses(), static_cast<size_t>(first) + kClasses);
  for (ClassId id = 0; id < reg.NumClasses(); id++) {
    ASSERT_TRUE(check(id)) << "class " << id;
  }
}

TEST(ClassRegistryDeathTest, RejectsMisalignedPayload) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 13, {}), "CHECK failed");
}

TEST(ClassRegistryDeathTest, RejectsOutOfRangeRefOffset) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 16, {16}), "CHECK failed");
}

TEST(ClassRegistryDeathTest, RejectsMisalignedRefOffset) {
  ClassRegistry reg;
  EXPECT_DEATH(reg.RegisterInstance("Bad", 16, {4}), "CHECK failed");
}

}  // namespace
}  // namespace rolp
