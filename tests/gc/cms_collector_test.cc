#include "src/gc/cms_collector.h"

#include <gtest/gtest.h>

#include "src/util/fault_injection.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

class FreeListSpaceTest : public ::testing::Test {
 protected:
  FreeListSpaceTest() : env_(16, GcConfig{}) {}
  GcTestEnv env_;
  FreeListSpace space_;
};

TEST_F(FreeListSpaceTest, AddRegionMakesOneBlock) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddRegion(r);
  EXPECT_EQ(space_.free_bytes(), r->capacity());
  EXPECT_EQ(space_.largest_free_block(), r->capacity());
  // The region is walkable: one free block.
  int blocks = 0;
  r->ForEachObject([&](Object* obj) {
    EXPECT_EQ(obj->class_id, kFreeBlockClassId);
    blocks++;
  });
  EXPECT_EQ(blocks, 1);
}

TEST_F(FreeListSpaceTest, AllocateSplitsBlock) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddRegion(r);
  size_t actual = 0;
  char* p = space_.Allocate(64, &actual);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(actual, 64u);
  EXPECT_EQ(p, r->begin());
  EXPECT_EQ(space_.free_bytes(), r->capacity() - 64);
}

TEST_F(FreeListSpaceTest, SliverAbsorbedIntoAllocation) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddFreeBlock(r->begin(), 72);
  size_t actual = 0;
  // 64 requested from a 72 block leaves 8 < kMinBlock: absorbed.
  char* p = space_.Allocate(64, &actual);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(actual, 72u);
  EXPECT_EQ(space_.free_bytes(), 0u);
}

TEST_F(FreeListSpaceTest, AllocationFailsWhenNothingFits) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddFreeBlock(r->begin(), 128);
  space_.AddFreeBlock(r->begin() + 128, 128);
  size_t actual = 0;
  // 256 free total but the largest block is 128: fragmentation.
  EXPECT_EQ(space_.Allocate(256, &actual), nullptr);
  EXPECT_EQ(space_.free_bytes(), 256u);
  EXPECT_EQ(space_.largest_free_block(), 128u);
}

TEST_F(FreeListSpaceTest, ExactFitLeavesNoRemainder) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddFreeBlock(r->begin(), 256);
  size_t actual = 0;
  char* p = space_.Allocate(256, &actual);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(actual, 256u);
  EXPECT_EQ(space_.free_bytes(), 0u);
}

TEST_F(FreeListSpaceTest, LargeBlocksServeLargeRequests) {
  Region* r = env_.heap->regions().AllocateRegion(RegionKind::kOld);
  space_.AddRegion(r);
  size_t actual = 0;
  char* p = space_.Allocate(300 * 1024, &actual);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(actual, 300u * 1024);
}

// Young scavenges run on the parallel copy engine: the graph, mid-cycle
// promotion and promotion-failure cases run at each of these GC worker
// counts (2 is the default).
constexpr uint32_t kWorkerCounts[] = {1, 2, 4};

class CmsCollectorTest : public ::testing::Test {
 protected:
  void Start(size_t heap_mb, GcConfig cfg) {
    env_ = std::make_unique<GcTestEnv>(heap_mb, cfg);
    env_->SetCollector(
        std::make_unique<CmsCollector>(env_->heap.get(), cfg, &env_->safepoints));
    node_cls_ = env_->heap->classes().RegisterInstance("Node", 24, {0});
  }

  CmsCollector* cms() { return static_cast<CmsCollector*>(env_->collector.get()); }

  // A white old object W, held only by a root pushed after initial mark, is
  // stored into the black object B and the root is dropped. The store barrier
  // must gray W whether the store lands while slices are still tracing or
  // after they drained (kSweepPending lasts until the next young pause runs
  // the remark); otherwise the sweep frees W while B still references it.
  void LateStoreIntoBlackObjectSurvivesSweep(bool store_after_drain) {
    GcConfig cfg;
    cfg.tenuring_threshold = 1;
    cfg.cms_trigger_occupancy = 0;  // the first young pause starts a cycle
    Start(48, cfg);
    size_t ro = env_->PushRoot(env_->AllocRefArray(1));
    env_->SetElem(env_->Root(ro), 0, env_->AllocInstance(node_cls_));
    size_t rb = env_->PushRoot(env_->AllocRefArray(1));
    // 96 x 64 KB of reachable data keeps the trace busy for many slices.
    size_t rbig = env_->PushRoot(env_->AllocRefArray(96));
    for (uint64_t i = 0; i < 96; i++) {
      Object* d = env_->AllocDataArray(64 * 1024);
      env_->SetElem(env_->Root(rbig), i, d);
    }
    // One young pause promotes everything; its initial mark grays the roots.
    while (env_->PausesOfKind(PauseKind::kYoung) == 0) {
      env_->AllocDataArray(8 * 1024);
    }
    ASSERT_EQ(cms()->phase(), CmsCollector::Phase::kMarking);
    size_t rw = env_->PushRoot(env_->GetElem(env_->Root(ro), 0));
    env_->SetElem(env_->Root(ro), 0, nullptr);
    if (store_after_drain) {
      while (cms()->phase() == CmsCollector::Phase::kMarking) {
        env_->AllocDataArray(8 * 1024);
      }
      ASSERT_EQ(cms()->phase(), CmsCollector::Phase::kSweepPending);
      ASSERT_EQ(env_->PausesOfKind(PauseKind::kCmsRemark), 0u);
    }
    env_->SetElem(env_->Root(rb), 0, env_->Root(rw));
    env_->PopRoots(rw);
    while (env_->PausesOfKind(PauseKind::kCmsRemark) == 0) {
      env_->AllocDataArray(8 * 1024);
    }
    Object* w = env_->GetElem(env_->Root(rb), 0);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->class_id, node_cls_);
    HeapVerifier::Report report = HeapVerifier(env_->heap.get(), &env_->safepoints).Verify();
    EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                             << (report.errors.empty() ? "" : report.errors[0]);
  }

  std::unique_ptr<GcTestEnv> env_;
  ClassId node_cls_;

  // Pushes a root holding a chain of n nodes with payload markers n-1..0.
  size_t BuildList(int n) {
    size_t head = env_->PushRoot(nullptr);
    for (int i = 0; i < n; i++) {
      Object* node = env_->AllocInstance(node_cls_);
      env_->SetField(node, 0, env_->Root(head));
      *reinterpret_cast<uint64_t*>(node->payload() + 8) = static_cast<uint64_t>(i);
      env_->SetRoot(head, node);
    }
    return head;
  }

  // Walks the chain from BuildList, checking every marker; returns its length.
  int CheckList(size_t head, int n) {
    int count = 0;
    Object* node = env_->Root(head);
    uint64_t expect = static_cast<uint64_t>(n) - 1;
    while (node != nullptr) {
      EXPECT_EQ(*reinterpret_cast<uint64_t*>(node->payload() + 8), expect);
      expect--;
      count++;
      node = env_->GetField(node, 0);
    }
    return count;
  }

  void YoungGcPreservesLinkedList(uint32_t workers) {
    GcConfig cfg;
    cfg.num_workers = workers;
    Start(32, cfg);
    size_t head = BuildList(200);
    env_->ChurnYoung(24 * 1024 * 1024);
    EXPECT_EQ(CheckList(head, 200), 200);
    EXPECT_GE(env_->PausesOfKind(PauseKind::kYoung), 1u);
  }

  void ObjectPromotedMidCycleIsTraced(uint32_t workers);
  void PromotionFailureTriggersFullCompaction(uint32_t workers);
};

TEST_F(CmsCollectorTest, YoungGcPreservesLinkedList) {
  for (uint32_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << workers << " GC workers");
    YoungGcPreservesLinkedList(workers);
  }
}

TEST_F(CmsCollectorTest, TenuredObjectsLandInFreeListOldSpace) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_);
  size_t root = env_->PushRoot(obj);
  env_->ChurnYoung(16 * 1024 * 1024);
  Region* r = env_->heap->regions().RegionFor(env_->Root(root));
  EXPECT_EQ(r->kind(), RegionKind::kOld);
}

TEST_F(CmsCollectorTest, ConcurrentCycleReclaimsDeadOldData) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;     // promote aggressively
  cfg.cms_trigger_occupancy = 0.15;
  Start(48, cfg);
  // Create ~12MB of chained old data, then drop it all.
  size_t root = env_->PushRoot(nullptr);
  for (int i = 0; i < 250; i++) {
    Object* pair = env_->AllocRefArray(2);
    env_->SetElem(pair, 0, env_->Root(root));
    size_t rp = env_->PushRoot(pair);
    Object* d = env_->AllocDataArray(48 * 1024);
    env_->SetElem(env_->Root(rp), 1, d);
    env_->SetRoot(root, env_->Root(rp));
    env_->PopRoots(rp);
    env_->ChurnYoung(128 * 1024);  // age it into old space
  }
  env_->SetRoot(root, nullptr);
  // Keep allocating: the concurrent cycle must start, finish, and sweep.
  for (int i = 0; i < 40 && cms()->full_gcs() == 0; i++) {
    env_->ChurnYoung(2 * 1024 * 1024);
    if (env_->PausesOfKind(PauseKind::kCmsRemark) >= 1 &&
        cms()->phase() == CmsCollector::Phase::kIdle) {
      break;
    }
  }
  EXPECT_GE(env_->PausesOfKind(PauseKind::kCmsRemark), 1u);
  // Dead old data went back to the free lists or whole regions were freed.
  EXPECT_GT(env_->heap->regions().free_regions() * 1024 * 1024 +
                cms()->old_space().free_bytes(),
            8u * 1024 * 1024);
}

TEST_F(CmsCollectorTest, LiveOldDataSurvivesConcurrentCycle) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  cfg.cms_trigger_occupancy = 0.25;
  Start(48, cfg);
  size_t head = env_->PushRoot(nullptr);
  for (int i = 0; i < 400; i++) {
    Object* n = env_->AllocInstance(node_cls_);
    env_->SetField(n, 0, env_->Root(head));
    *reinterpret_cast<uint64_t*>(n->payload() + 8) = static_cast<uint64_t>(i);
    env_->SetRoot(head, n);
    env_->ChurnYoung(96 * 1024);
  }
  // Drive several cycles.
  for (int i = 0; i < 30; i++) {
    env_->ChurnYoung(2 * 1024 * 1024);
  }
  int count = 0;
  Object* n = env_->Root(head);
  uint64_t expect = 399;
  while (n != nullptr) {
    ASSERT_EQ(*reinterpret_cast<uint64_t*>(n->payload() + 8), expect);
    expect--;
    count++;
    n = env_->GetField(n, 0);
  }
  EXPECT_EQ(count, 400);
}

TEST_F(CmsCollectorTest, StoreWhileMarkingKeepsTargetAlive) {
  LateStoreIntoBlackObjectSurvivesSweep(/*store_after_drain=*/false);
}

TEST_F(CmsCollectorTest, StoreAfterSlicesDrainKeepsTargetAlive) {
  LateStoreIntoBlackObjectSurvivesSweep(/*store_after_drain=*/true);
}

void CmsCollectorTest::ObjectPromotedMidCycleIsTraced(uint32_t workers) {
  GcConfig cfg;
  cfg.num_workers = workers;
  cfg.tenuring_threshold = 2;
  cfg.cms_trigger_occupancy = 0;  // the first young pause after idle starts a cycle
  Start(48, cfg);
  // O is tenured by the end of the first cycle.
  size_t ro = env_->PushRoot(env_->AllocInstance(node_cls_));
  while (env_->PausesOfKind(PauseKind::kCmsRemark) == 0) {
    env_->AllocDataArray(8 * 1024);
  }
  ASSERT_EQ(cms()->phase(), CmsCollector::Phase::kIdle);
  ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(ro))->kind(), RegionKind::kOld);
  // Between cycles: root -> A -> S -> O, with O reachable only through the
  // young S. 96 x 64 KB of reachable data is traced before A, so S is still
  // white when the next young pause promotes it mid-cycle.
  size_t ra = env_->PushRoot(env_->AllocRefArray(1));
  Object* s = env_->AllocInstance(node_cls_);
  env_->SetField(s, 0, env_->Root(ro));
  env_->SetElem(env_->Root(ra), 0, s);
  env_->SetRoot(ro, nullptr);
  size_t rbig = env_->PushRoot(env_->AllocRefArray(96));
  for (uint64_t i = 0; i < 96; i++) {
    Object* d = env_->AllocDataArray(64 * 1024);
    env_->SetElem(env_->Root(rbig), i, d);
  }
  uint64_t young = env_->PausesOfKind(PauseKind::kYoung);
  while (env_->PausesOfKind(PauseKind::kYoung) == young) {
    env_->AllocDataArray(8 * 1024);
  }
  ASSERT_EQ(cms()->phase(), CmsCollector::Phase::kMarking);
  while (env_->PausesOfKind(PauseKind::kCmsRemark) < 2) {
    env_->AllocDataArray(8 * 1024);
  }
  ASSERT_EQ(env_->PausesOfKind(PauseKind::kFull), 0u);
  s = env_->GetElem(env_->Root(ra), 0);
  ASSERT_EQ(env_->heap->regions().RegionFor(s)->kind(), RegionKind::kOld);
  Object* o = env_->GetField(s, 0);
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->class_id, node_cls_);
}

TEST_F(CmsCollectorTest, ObjectPromotedMidCycleIsTraced) {
  for (uint32_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << workers << " GC workers");
    ObjectPromotedMidCycleIsTraced(workers);
  }
}

void CmsCollectorTest::PromotionFailureTriggersFullCompaction(uint32_t workers) {
  GcConfig cfg;
  cfg.num_workers = workers;
  cfg.tenuring_threshold = 1;
  cfg.cms_trigger_occupancy = 0.95;  // effectively never run the cycle
  Start(16, cfg);
  // Promote live data until the old space cannot take more.
  size_t head = env_->PushRoot(nullptr);
  for (int i = 0; i < 600; i++) {
    Object* pair = env_->AllocRefArray(2);
    if (pair == nullptr) {
      break;  // genuine OOM after compaction attempts: fine for this test
    }
    env_->SetElem(pair, 0, env_->Root(head));
    size_t rp = env_->PushRoot(pair);
    Object* d = env_->AllocDataArray(32 * 1024);
    if (d == nullptr) {
      env_->PopRoots(rp);
      break;
    }
    env_->SetElem(env_->Root(rp), 1, d);
    env_->SetRoot(head, env_->Root(rp));
    env_->PopRoots(rp);
    env_->ChurnYoung(256 * 1024);
    if (cms()->full_gcs() > 0) {
      break;
    }
  }
  EXPECT_GE(cms()->full_gcs(), 1u);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kFull), 1u);
}

TEST_F(CmsCollectorTest, PromotionFailureTriggersFullCompaction) {
  for (uint32_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << workers << " GC workers");
    PromotionFailureTriggersFullCompaction(workers);
  }
}

// Every scavenge worker stalls past the watchdog deadline: the cancelled
// scavenge self-forwards what it still meets, and the promotion-failure
// escalation finishes the pause with a full compaction, losing nothing.
TEST_F(CmsCollectorTest, CancelledScavengeFallsBackToFullCompaction) {
  FaultInjection& fi = FaultInjection::Instance();
  fi.Reset();
  Start(32, GcConfig{});
  WatchdogConfig wd;
  wd.phase_deadline_ms = 40;
  wd.worker_stall_ms = 20;
  wd.max_compact_overruns = 1000000;  // slow sanitizer runs never abort
  env_->collector->InstallWatchdog(wd);
  size_t head = BuildList(200);
  fi.ArmDelay("gc.phase.evacuate.stall", 400);  // every worker, every pause
  for (int i = 0; i < 64 && env_->PausesOfKind(PauseKind::kFull) == 0; i++) {
    env_->ChurnYoung(1024 * 1024);
  }
  fi.Reset();
  EXPECT_GE(env_->collector->watchdog()->stats().phases_cancelled, 1u);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kFull), 1u);
  EXPECT_EQ(CheckList(head, 200), 200);
  HeapVerifier::Report report = HeapVerifier(env_->heap.get(), &env_->safepoints).Verify();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(CmsCollectorTest, HumongousAllocAndReclaim) {
  GcConfig cfg;
  cfg.cms_trigger_occupancy = 0.05;  // the humongous object alone triggers
  Start(32, cfg);
  Object* big = env_->AllocDataArray(2 * 1024 * 1024);
  ASSERT_NE(big, nullptr);
  size_t root = env_->PushRoot(big);
  EXPECT_TRUE(env_->heap->regions().RegionFor(big)->IsHumongous());
  env_->SetRoot(root, nullptr);
  // Drive cycles until the humongous object is swept.
  size_t free_before = env_->heap->regions().free_regions();
  for (int i = 0; i < 60; i++) {
    env_->ChurnYoung(2 * 1024 * 1024);
    if (env_->heap->regions().free_regions() > free_before) {
      break;
    }
  }
  EXPECT_GT(env_->heap->regions().free_regions(), free_before);
}

}  // namespace
}  // namespace rolp
