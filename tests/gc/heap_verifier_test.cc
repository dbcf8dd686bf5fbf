#include "src/gc/heap_verifier.h"

#include <gtest/gtest.h>

#include "src/gc/cms_collector.h"
#include "src/gc/free_list_space.h"
#include "src/gc/regional_collector.h"
#include "src/gc/zgc_collector.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

class HeapVerifierTest : public ::testing::Test {
 protected:
  void Start(size_t heap_mb, GcConfig cfg, const char* collector) {
    env_ = std::make_unique<GcTestEnv>(heap_mb, cfg);
    if (std::string(collector) == "cms") {
      env_->SetCollector(
          std::make_unique<CmsCollector>(env_->heap.get(), cfg, &env_->safepoints));
    } else if (std::string(collector) == "zgc") {
      env_->SetCollector(
          std::make_unique<ZgcCollector>(env_->heap.get(), cfg, &env_->safepoints));
    } else {
      env_->SetCollector(
          std::make_unique<RegionalCollector>(env_->heap.get(), cfg, &env_->safepoints));
    }
    node_cls_ = env_->heap->classes().RegisterInstance("Node", 24, {0});
  }

  // Builds a few linked structures and churns garbage through collections.
  void BuildAndChurn() {
    size_t head = env_->PushRoot(nullptr);
    for (int i = 0; i < 300; i++) {
      Object* n = env_->AllocInstance(node_cls_);
      env_->SetField(n, 0, env_->Root(head));
      env_->SetRoot(head, n);
      if (i % 3 == 0) {
        size_t rn = env_->PushRoot(env_->Root(head));
        Object* arr = env_->AllocRefArray(4);
        env_->SetElem(arr, 0, env_->Root(rn));
        env_->PopRoots(rn);
      }
    }
    env_->ChurnYoung(20 * 1024 * 1024);
  }

  HeapVerifier::Report VerifyNow(bool check_remsets = true) {
    HeapVerifier verifier(env_->heap.get(), &env_->safepoints, check_remsets);
    return verifier.Verify();
  }

  std::unique_ptr<GcTestEnv> env_;
  ClassId node_cls_;
};

TEST_F(HeapVerifierTest, CleanHeapAfterG1Collections) {
  Start(32, GcConfig{}, "g1");
  BuildAndChurn();
  auto report = VerifyNow();
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(report.objects_walked, 100u);
  EXPECT_GT(report.refs_checked, 100u);
}

TEST_F(HeapVerifierTest, CleanHeapAfterNg2cMixedCollections) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  cfg.mixed_trigger_occupancy = 0.3;
  Start(32, cfg, "g1");
  for (int i = 0; i < 450; i++) {
    env_->AllocDataArray(32 * 1024, /*gen=*/3);
  }
  BuildAndChurn();
  EXPECT_GE(env_->PausesOfKind(PauseKind::kMixed), 1u);
  auto report = VerifyNow();
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
}

TEST_F(HeapVerifierTest, CleanHeapAfterFullCompaction) {
  Start(32, GcConfig{}, "g1");
  BuildAndChurn();
  env_->collector->CollectFull(&env_->ctx);
  auto report = VerifyNow();
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
}

TEST_F(HeapVerifierTest, CleanHeapAfterCmsCycle) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  cfg.cms_trigger_occupancy = 0.15;
  Start(48, cfg, "cms");
  BuildAndChurn();
  for (int i = 0; i < 20; i++) {
    env_->ChurnYoung(2 * 1024 * 1024);
  }
  auto report = VerifyNow();
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
}

TEST_F(HeapVerifierTest, CleanHeapAfterZgcCycles) {
  GcConfig cfg;
  cfg.z_trigger_occupancy = 0.25;
  Start(32, cfg, "zgc");
  BuildAndChurn();
  // Z keeps no remembered sets; skip that check.
  auto report = VerifyNow(/*check_remsets=*/false);
  EXPECT_TRUE(report.ok()) << report.Summary() << "\n"
                           << (report.errors.empty() ? "" : report.errors[0]);
}

TEST_F(HeapVerifierTest, DetectsDanglingReference) {
  Start(32, GcConfig{}, "g1");
  Object* holder = env_->AllocInstance(node_cls_);
  size_t root = env_->PushRoot(holder);
  // Forge a pointer into a free region (bypassing the write barrier).
  Region* free_region = nullptr;
  env_->heap->regions().ForEachRegion([&](Region* r) {
    if (free_region == nullptr && r->IsFree()) {
      free_region = r;
    }
  });
  ASSERT_NE(free_region, nullptr);
  env_->Root(root)->RefSlotAt(0)->store(reinterpret_cast<Object*>(free_region->begin()),
                                        std::memory_order_relaxed);
  auto report = VerifyNow();
  EXPECT_FALSE(report.ok());
  env_->Root(root)->RefSlotAt(0)->store(nullptr, std::memory_order_relaxed);
  // A target inside a live region that a sweep already turned into a free
  // block dangles just the same.
  Object* target = env_->AllocInstance(node_cls_);
  env_->SetField(env_->Root(root), 0, target);
  ASSERT_TRUE(VerifyNow().ok());
  FreeListSpace::FormatFreeBlock(reinterpret_cast<char*>(target), target->size_bytes);
  report = VerifyNow();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.findings[0].kind, HeapVerifier::Finding::Kind::kDanglingRef);
  // Undo so teardown collections do not trip over the forged pointer.
  env_->Root(root)->RefSlotAt(0)->store(nullptr, std::memory_order_relaxed);
}

TEST_F(HeapVerifierTest, DetectsMissingRemsetEntry) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  Start(32, cfg, "g1");
  Object* anchor = env_->AllocInstance(node_cls_);
  size_t ra = env_->PushRoot(anchor);
  env_->ChurnYoung(12 * 1024 * 1024);
  ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(ra))->kind(), RegionKind::kOld);
  Object* young = env_->AllocInstance(node_cls_);
  env_->SetField(env_->Root(ra), 0, young);
  Region* young_region = env_->heap->regions().RegionFor(env_->GetField(env_->Root(ra), 0));
  ASSERT_TRUE(VerifyNow().ok());
  // Sabotage: clear the young region's remembered set.
  young_region->ClearRemset();
  EXPECT_FALSE(VerifyNow().ok());
}

TEST_F(HeapVerifierTest, SummaryMentionsCounts) {
  Start(32, GcConfig{}, "g1");
  env_->AllocInstance(node_cls_);
  auto report = VerifyNow();
  std::string s = report.Summary();
  EXPECT_NE(s.find("objects"), std::string::npos);
  EXPECT_NE(s.find("OK"), std::string::npos);
}

}  // namespace
}  // namespace rolp
