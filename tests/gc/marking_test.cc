#include "src/gc/marking.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/gc/mark_bitmap.h"
#include "src/gc/regional_collector.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

class MarkingTest : public ::testing::Test {
 protected:
  MarkingTest() : env_(32, GcConfig{}) {
    env_.SetCollector(
        std::make_unique<RegionalCollector>(env_.heap.get(), GcConfig{}, &env_.safepoints));
    node_cls_ = env_.heap->classes().RegisterInstance("Node", 16, {0});
    bitmap_ = std::make_unique<MarkBitmap>(env_.heap->regions().heap_base(),
                                           env_.heap->regions().committed_bytes());
  }

  GcTestEnv env_;
  ClassId node_cls_;
  std::unique_ptr<MarkBitmap> bitmap_;
};

TEST_F(MarkingTest, BitmapMarkIsIdempotent) {
  Object* obj = env_.AllocInstance(node_cls_);
  EXPECT_FALSE(bitmap_->IsMarked(obj));
  EXPECT_TRUE(bitmap_->Mark(obj));
  EXPECT_FALSE(bitmap_->Mark(obj));
  EXPECT_TRUE(bitmap_->IsMarked(obj));
  bitmap_->Clear(obj);
  EXPECT_FALSE(bitmap_->IsMarked(obj));
}

TEST_F(MarkingTest, MarksTransitivelyFromRoots) {
  // root -> a -> b -> c, d unreachable
  Object* c = env_.AllocInstance(node_cls_);
  size_t rc = env_.PushRoot(c);
  Object* b = env_.AllocInstance(node_cls_);
  env_.SetField(b, 0, env_.Root(rc));
  size_t rb = env_.PushRoot(b);
  Object* a = env_.AllocInstance(node_cls_);
  env_.SetField(a, 0, env_.Root(rb));
  Object* d = env_.AllocInstance(node_cls_);
  (void)d;
  env_.PopRoots(0);
  size_t ra = env_.PushRoot(a);

  ASSERT_TRUE(env_.safepoints.BeginOperation(&env_.ctx));
  Marker marker(env_.heap.get(), bitmap_.get());
  marker.MarkFromRoots(&env_.safepoints, nullptr);
  env_.safepoints.EndOperation(&env_.ctx);

  a = env_.Root(ra);
  EXPECT_TRUE(bitmap_->IsMarked(a));
  Object* b2 = a->RefSlotAt(0)->load();
  ASSERT_NE(b2, nullptr);
  EXPECT_TRUE(bitmap_->IsMarked(b2));
  Object* c2 = b2->RefSlotAt(0)->load();
  ASSERT_NE(c2, nullptr);
  EXPECT_TRUE(bitmap_->IsMarked(c2));
  EXPECT_EQ(marker.marked_objects(), 3u);
}

TEST_F(MarkingTest, HandlesCycles) {
  Object* a = env_.AllocInstance(node_cls_);
  size_t ra = env_.PushRoot(a);
  Object* b = env_.AllocInstance(node_cls_);
  env_.SetField(env_.Root(ra), 0, b);
  env_.SetField(b, 0, env_.Root(ra));  // cycle

  ASSERT_TRUE(env_.safepoints.BeginOperation(&env_.ctx));
  Marker marker(env_.heap.get(), bitmap_.get());
  marker.MarkFromRoots(&env_.safepoints, nullptr);
  env_.safepoints.EndOperation(&env_.ctx);
  EXPECT_EQ(marker.marked_objects(), 2u);
}

TEST_F(MarkingTest, AccountsLiveBytesPerRegion) {
  Object* a = env_.AllocInstance(node_cls_);
  env_.PushRoot(a);
  Region* r = env_.heap->regions().RegionFor(a);

  ASSERT_TRUE(env_.safepoints.BeginOperation(&env_.ctx));
  Marker marker(env_.heap.get(), bitmap_.get());
  marker.MarkFromRoots(&env_.safepoints, nullptr);
  env_.safepoints.EndOperation(&env_.ctx);
  EXPECT_EQ(r->live_bytes(), a->size_bytes);
  EXPECT_EQ(marker.marked_bytes(), a->size_bytes);
}

TEST_F(MarkingTest, GlobalRootsAreTraced) {
  Object* a = env_.AllocInstance(node_cls_);
  GlobalRef ref(&env_.heap->roots(), a);

  ASSERT_TRUE(env_.safepoints.BeginOperation(&env_.ctx));
  Marker marker(env_.heap.get(), bitmap_.get());
  marker.MarkFromRoots(&env_.safepoints, nullptr);
  env_.safepoints.EndOperation(&env_.ctx);
  EXPECT_TRUE(bitmap_->IsMarked(ref.get()));
}

TEST_F(MarkingTest, ParallelMarkingMatchesSerial) {
  // Build a wide tree: root array of 64 children each with a chain of 10.
  Object* arr = env_.AllocRefArray(64);
  size_t root = env_.PushRoot(arr);
  for (uint64_t i = 0; i < 64; i++) {
    Object* prev = nullptr;
    for (int j = 0; j < 10; j++) {
      Object* n = env_.AllocInstance(node_cls_);
      env_.SetField(n, 0, prev);
      prev = n;
      // Keep prev reachable across the next allocation.
      env_.SetElem(env_.Root(root), i, prev);
    }
  }

  auto live_bytes = [&] {
    std::vector<size_t> live;
    env_.heap->regions().ForEachRegion([&](Region* r) { live.push_back(r->live_bytes()); });
    return live;
  };

  ASSERT_TRUE(env_.safepoints.BeginOperation(&env_.ctx));
  Marker serial(env_.heap.get(), bitmap_.get());
  serial.MarkFromRoots(&env_.safepoints, nullptr);
  uint64_t serial_objects = serial.marked_objects();
  uint64_t serial_bytes = serial.marked_bytes();
  std::vector<size_t> serial_live = live_bytes();

  WorkerPool pool(4);
  Marker parallel(env_.heap.get(), bitmap_.get());
  parallel.MarkFromRoots(&env_.safepoints, &pool);
  std::vector<size_t> parallel_live = live_bytes();

  // Incremental mode: one object per slice, and a barrier push (a mutator
  // re-storing a chain head it already holds) between slices.
  Marker incremental(env_.heap.get(), bitmap_.get());
  incremental.Start(&env_.safepoints);
  uint64_t steps = 0;
  while (!incremental.Step(1)) {
    Object* arr_now = env_.Root(root);
    incremental.BarrierPush(arr_now->RefArraySlot(steps % 64)->load());
    steps++;
  }
  incremental.Remark(&env_.safepoints);
  std::vector<size_t> incremental_live = live_bytes();
  env_.safepoints.EndOperation(&env_.ctx);

  EXPECT_EQ(parallel.marked_objects(), serial_objects);
  EXPECT_EQ(parallel.marked_bytes(), serial_bytes);
  EXPECT_EQ(parallel_live, serial_live);
  EXPECT_GE(steps, serial_objects - 1);
  EXPECT_EQ(incremental.marked_objects(), serial_objects);
  EXPECT_EQ(incremental.marked_bytes(), serial_bytes);
  EXPECT_EQ(incremental_live, serial_live);
  EXPECT_EQ(serial_objects, 1u + 64u * 10u);
}

}  // namespace
}  // namespace rolp
