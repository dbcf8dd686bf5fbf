#include "src/gc/regional_collector.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/gc/heap_verifier.h"
#include "tests/gc/gc_test_util.h"

namespace rolp {
namespace {

class RegionalCollectorTest : public ::testing::Test {
 protected:
  void Start(size_t heap_mb, GcConfig cfg, double young_fraction = 0.25) {
    env_ = std::make_unique<GcTestEnv>(heap_mb, cfg, young_fraction);
    env_->SetCollector(
        std::make_unique<RegionalCollector>(env_->heap.get(), cfg, &env_->safepoints));
    node_cls_ = env_->heap->classes().RegisterInstance("Node", 24, {0});
  }

  // Builds a linked list of n elements. Each element is a pair ref-array
  // [node, data]: node.next (ref offset 0) points at the previous pair, the
  // node payload stores its index, and data carries a recognizable pattern.
  // Returns the root-slot index of the head pair.
  size_t BuildList(int n, uint8_t gen = kYoungGen) {
    size_t head = env_->PushRoot(nullptr);
    for (int i = 0; i < n; i++) {
      Object* data = env_->AllocDataArray(64, gen);
      FillPattern(data, i);
      size_t dr = env_->PushRoot(data);
      Object* node = env_->AllocInstance(node_cls_, gen);
      env_->SetField(node, 0, env_->Root(head));
      *reinterpret_cast<uint64_t*>(node->payload() + 8) = static_cast<uint64_t>(i);
      size_t nr = env_->PushRoot(node);
      Object* pair = env_->AllocRefArray(2, gen);
      env_->SetElem(pair, 0, env_->Root(nr));
      env_->SetElem(pair, 1, env_->Root(dr));
      env_->SetRoot(head, pair);
      env_->PopRoots(dr);
    }
    return head;
  }

  void FillPattern(Object* data, int seed) {
    char* p = data->DataArrayBytes();
    for (uint64_t i = 0; i < data->ArrayLength(); i++) {
      p[i] = static_cast<char>((seed * 31 + static_cast<int>(i)) & 0xFF);
    }
  }

  // Verifies the list structure built by BuildList: pair = [node, data],
  // node.next = previous pair, node.payload index matches, data pattern ok.
  int VerifyList(size_t head_root) {
    Object* pair = env_->Root(head_root);
    int count = 0;
    int expected_index = -1;  // unknown until first node
    while (pair != nullptr) {
      EXPECT_EQ(pair->ArrayLength(), 2u);
      Object* node = env_->GetElem(pair, 0);
      Object* data = env_->GetElem(pair, 1);
      EXPECT_NE(node, nullptr);
      EXPECT_NE(data, nullptr);
      int index = static_cast<int>(*reinterpret_cast<uint64_t*>(node->payload() + 8));
      if (expected_index >= 0) {
        EXPECT_EQ(index, expected_index);
      }
      expected_index = index - 1;
      char* p = data->DataArrayBytes();
      for (uint64_t i = 0; i < data->ArrayLength(); i++) {
        EXPECT_EQ(p[i], static_cast<char>((index * 31 + static_cast<int>(i)) & 0xFF))
            << "data corruption at node " << index;
      }
      count++;
      pair = env_->GetField(node, 0);
    }
    return count;
  }

  std::unique_ptr<GcTestEnv> env_;
  ClassId node_cls_;
};

TEST_F(RegionalCollectorTest, YoungGcPreservesLiveData) {
  Start(32, GcConfig{});
  size_t head = BuildList(500);
  uint64_t cycles_before = env_->collector->metrics().GcCycles();
  env_->ChurnYoung(24 * 1024 * 1024);  // > heap worth of garbage
  EXPECT_GT(env_->collector->metrics().GcCycles(), cycles_before);
  EXPECT_EQ(VerifyList(head), 500);
}

TEST_F(RegionalCollectorTest, SurvivorsLeaveEden) {
  Start(32, GcConfig{});
  Object* obj = env_->AllocInstance(node_cls_);
  size_t root = env_->PushRoot(obj);
  env_->ChurnYoung(16 * 1024 * 1024);
  Region* r = env_->heap->regions().RegionFor(env_->Root(root));
  EXPECT_NE(r->kind(), RegionKind::kEden);
  EXPECT_GE(markword::Age(env_->Root(root)->LoadMark()), 1u);
}

TEST_F(RegionalCollectorTest, TenuringThresholdPromotesToOld) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;  // promote on first survival
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_);
  size_t root = env_->PushRoot(obj);
  env_->ChurnYoung(16 * 1024 * 1024);
  Region* r = env_->heap->regions().RegionFor(env_->Root(root));
  EXPECT_EQ(r->kind(), RegionKind::kOld);
}

TEST_F(RegionalCollectorTest, AgeSaturatesAtFifteen) {
  GcConfig cfg;
  cfg.tenuring_threshold = 15;
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_);
  size_t root = env_->PushRoot(obj);
  for (int i = 0; i < 20; i++) {
    env_->ChurnYoung(9 * 1024 * 1024);
  }
  uint32_t age = markword::Age(env_->Root(root)->LoadMark());
  EXPECT_EQ(age, 15u);
  // At age >= threshold the object must live in old space.
  EXPECT_EQ(env_->heap->regions().RegionFor(env_->Root(root))->kind(), RegionKind::kOld);
}

TEST_F(RegionalCollectorTest, GarbageIsReclaimed) {
  Start(32, GcConfig{});
  // Allocate far more garbage than the heap; if reclamation failed we would
  // hit OOM (AllocateSlow returning nullptr would crash ChurnYoung's checks).
  env_->ChurnYoung(100 * 1024 * 1024);
  // After collections, most regions should be free again.
  env_->collector->CollectFull(&env_->ctx);
  EXPECT_GT(env_->heap->regions().free_regions(), env_->heap->regions().num_regions() / 2);
}

TEST_F(RegionalCollectorTest, ContextSurvivesCopies) {
  Start(32, GcConfig{});
  AllocRequest req;
  req.cls = node_cls_;
  req.total_bytes = env_->heap->InstanceAllocSize(node_cls_);
  req.context = markword::MakeContext(1234, 77);
  Object* obj = env_->Alloc(req);
  size_t root = env_->PushRoot(obj);
  env_->ChurnYoung(16 * 1024 * 1024);
  EXPECT_EQ(markword::Context(env_->Root(root)->LoadMark()),
            markword::MakeContext(1234, 77));
}

TEST_F(RegionalCollectorTest, CrossRegionReferenceSurvivesViaRemset) {
  GcConfig cfg;
  cfg.tenuring_threshold = 1;
  Start(32, cfg);
  // Anchor gets promoted to old.
  Object* anchor = env_->AllocInstance(node_cls_);
  size_t ra = env_->PushRoot(anchor);
  env_->ChurnYoung(16 * 1024 * 1024);
  ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(ra))->kind(), RegionKind::kOld);
  // Fresh young object referenced ONLY from the old anchor.
  Object* young = env_->AllocInstance(node_cls_);
  *reinterpret_cast<uint64_t*>(young->payload() + 8) = 0xFEEDFACE;
  env_->SetField(env_->Root(ra), 0, young);
  env_->ChurnYoung(16 * 1024 * 1024);
  Object* survived = env_->GetField(env_->Root(ra), 0);
  ASSERT_NE(survived, nullptr);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(survived->payload() + 8), 0xFEEDFACEu);
}

// Objects without reference slots are never queued for a referent scan.
// A young GC over data arrays, ref-free instances, ref arrays and instances,
// half of them reachable only through an old region's remembered set, keeps
// every payload and every edge.
TEST_F(RegionalCollectorTest, YoungGcKeepsLeafAndReferenceObjects) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  cfg.num_workers = 2;
  Start(32, cfg);
  ClassId leaf_cls = env_->heap->classes().RegisterInstance("Leaf", 16, {});
  constexpr uint64_t kSlots = 400;
  size_t holders[2];
  holders[0] = env_->PushRoot(env_->AllocRefArray(kSlots));
  holders[1] = env_->PushRoot(env_->AllocRefArray(kSlots, kOldGenId));
  ASSERT_EQ(env_->heap->regions().RegionFor(env_->Root(holders[1]))->kind(), RegionKind::kOld);

  auto make_leaf = [&](uint64_t i) {
    Object* leaf = env_->AllocInstance(leaf_cls);
    *reinterpret_cast<uint64_t*>(leaf->payload()) = i * 7 + 1;
    *reinterpret_cast<uint64_t*>(leaf->payload() + 8) = ~i;
    return leaf;
  };
  auto make_data = [&](uint64_t i, uint8_t gen) {
    Object* data = env_->AllocDataArray(40, gen);
    FillPattern(data, static_cast<int>(i));
    return data;
  };
  // Slot i of either holder: kind i % 5 is a data array, a ref-free instance,
  // a ref array [leaf, data], a Node whose next is a leaf, or (old holder's
  // only leaves inside the remset source itself) a pretenured data array.
  const size_t base = env_->ctx.local_roots.size();
  for (uint64_t i = 0; i < 2 * kSlots; i++) {
    const uint64_t slot = i / 2;
    const size_t holder = holders[i % 2];
    Object* obj = nullptr;
    switch (slot % 5) {
      case 0:
        obj = make_data(slot, kYoungGen);
        break;
      case 1:
        obj = make_leaf(slot);
        break;
      case 2: {
        size_t lr = env_->PushRoot(make_leaf(slot));
        size_t dr = env_->PushRoot(make_data(slot, kYoungGen));
        obj = env_->AllocRefArray(2);
        env_->SetElem(obj, 0, env_->Root(lr));
        env_->SetElem(obj, 1, env_->Root(dr));
        break;
      }
      case 3: {
        size_t lr = env_->PushRoot(make_leaf(slot));
        obj = env_->AllocInstance(node_cls_);
        env_->SetField(obj, 0, env_->Root(lr));
        *reinterpret_cast<uint64_t*>(obj->payload() + 8) = slot;
        break;
      }
      default:
        obj = make_data(slot, kOldGenId);
        break;
    }
    env_->SetElem(env_->Root(holder), slot, obj);
    env_->PopRoots(base);
  }

  auto expect_leaf = [&](Object* leaf, uint64_t i) {
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(*reinterpret_cast<uint64_t*>(leaf->payload()), i * 7 + 1);
    EXPECT_EQ(*reinterpret_cast<uint64_t*>(leaf->payload() + 8), ~i);
  };
  auto expect_data = [&](Object* data, uint64_t i) {
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(data->ArrayLength(), 40u);
    const char* p = data->DataArrayBytes();
    for (uint64_t j = 0; j < 40; j++) {
      EXPECT_EQ(p[j], static_cast<char>((static_cast<int>(i) * 31 + static_cast<int>(j)) & 0xFF));
    }
  };
  auto expect_graph = [&] {
    for (size_t holder : holders) {
      for (uint64_t slot = 0; slot < kSlots; slot++) {
        Object* obj = env_->GetElem(env_->Root(holder), slot);
        ASSERT_NE(obj, nullptr) << "slot " << slot;
        switch (slot % 5) {
          case 0:
          case 4:
            expect_data(obj, slot);
            break;
          case 1:
            expect_leaf(obj, slot);
            break;
          case 2:
            expect_leaf(env_->GetElem(obj, 0), slot);
            expect_data(env_->GetElem(obj, 1), slot);
            break;
          default:
            expect_leaf(env_->GetField(obj, 0), slot);
            EXPECT_EQ(*reinterpret_cast<uint64_t*>(obj->payload() + 8), slot);
            break;
        }
      }
    }
  };
  expect_graph();

  const uint64_t cycles_before = env_->collector->metrics().GcCycles();
  const uint64_t copied_before = env_->collector->metrics().BytesCopied();
  env_->ChurnYoung(16 * 1024 * 1024);
  EXPECT_GT(env_->collector->metrics().GcCycles(), cycles_before);
  EXPECT_GT(env_->collector->metrics().BytesCopied(), copied_before);
  expect_graph();
  HeapVerifier verifier(env_->heap.get(), &env_->safepoints);
  HeapVerifier::Report report = verifier.Verify();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(RegionalCollectorTest, PretenuredAllocationTargetsDynamicGen) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_, /*gen=*/5);
  Region* r = env_->heap->regions().RegionFor(obj);
  EXPECT_EQ(r->kind(), RegionKind::kGen);
  EXPECT_EQ(r->gen(), 5u);
}

TEST_F(RegionalCollectorTest, PretenuredGen15GoesToOld) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_, kOldGenId);
  EXPECT_EQ(env_->heap->regions().RegionFor(obj)->kind(), RegionKind::kOld);
}

TEST_F(RegionalCollectorTest, DynamicGensDisabledFallsBackToYoung) {
  Start(32, GcConfig{});  // gens off (plain G1)
  Object* obj = env_->AllocInstance(node_cls_, /*gen=*/5);
  EXPECT_EQ(env_->heap->regions().RegionFor(obj)->kind(), RegionKind::kEden);
}

TEST_F(RegionalCollectorTest, PretenuredObjectsNotCopiedByYoungGc) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  Start(32, cfg);
  Object* obj = env_->AllocInstance(node_cls_, /*gen=*/3);
  size_t root = env_->PushRoot(obj);
  Object* before = env_->Root(root);
  uint64_t copied_before = env_->collector->metrics().BytesCopied();
  env_->ChurnYoung(16 * 1024 * 1024);
  // Young collections ran but the pretenured object did not move.
  EXPECT_GT(env_->collector->metrics().GcCycles(), 0u);
  EXPECT_EQ(env_->Root(root), before);
  (void)copied_before;
}

TEST_F(RegionalCollectorTest, MixedCollectionReclaimsDeadTenured) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  cfg.mixed_trigger_occupancy = 0.3;
  Start(32, cfg);
  // Fill gen 2 with ~16MB of data, then drop it all.
  size_t root = env_->PushRoot(nullptr);
  for (int i = 0; i < 300; i++) {
    Object* d = env_->AllocDataArray(48 * 1024, /*gen=*/2);
    env_->SetRoot(root, d);
  }
  env_->SetRoot(root, nullptr);
  auto used_before = env_->heap->regions().ComputeUsage();
  EXPECT_GT(used_before.gen_regions, 8u);
  // Churning young triggers collections; occupancy forces mixed.
  env_->ChurnYoung(16 * 1024 * 1024);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kMixed), 1u);
  auto used_after = env_->heap->regions().ComputeUsage();
  EXPECT_LT(used_after.gen_regions, used_before.gen_regions / 2);
}

TEST_F(RegionalCollectorTest, FullGcCompactsAndPreservesData) {
  GcConfig cfg;
  cfg.use_dynamic_gens = true;
  Start(64, cfg);
  size_t head = BuildList(300, /*gen=*/4);
  // Interleave dead tenured data.
  for (int i = 0; i < 100; i++) {
    env_->AllocDataArray(32 * 1024, /*gen=*/4);
  }
  auto before = env_->heap->regions().ComputeUsage();
  env_->collector->CollectFull(&env_->ctx);
  auto after = env_->heap->regions().ComputeUsage();
  EXPECT_LT(after.used_bytes, before.used_bytes);
  EXPECT_EQ(VerifyList(head), 300);
  EXPECT_GE(env_->PausesOfKind(PauseKind::kFull), 1u);
}

TEST_F(RegionalCollectorTest, HumongousAllocationAndReclamation) {
  Start(32, GcConfig{});
  Object* big = env_->AllocDataArray(3 * 1024 * 1024);
  ASSERT_NE(big, nullptr);
  Region* head = env_->heap->regions().RegionFor(big);
  EXPECT_EQ(head->kind(), RegionKind::kHumongous);
  EXPECT_EQ(head->humongous_span(), 4u);  // 3MB payload + header rounds to 4 regions
  EXPECT_EQ(big->ArrayLength(), 3u * 1024 * 1024);
  size_t root = env_->PushRoot(big);
  size_t free_with_big = env_->heap->regions().free_regions();
  // Live humongous objects survive a full collection in place.
  env_->collector->CollectFull(&env_->ctx);
  EXPECT_EQ(env_->Root(root), big);
  // Drop it; the next full collection reclaims the regions.
  env_->SetRoot(root, nullptr);
  env_->collector->CollectFull(&env_->ctx);
  EXPECT_GT(env_->heap->regions().free_regions(), free_with_big);
}

TEST_F(RegionalCollectorTest, HumongousDataSurvivesCompaction) {
  Start(32, GcConfig{});
  Object* big = env_->AllocDataArray(2 * 1024 * 1024);
  char* p = big->DataArrayBytes();
  for (size_t i = 0; i < 2 * 1024 * 1024; i += 4096) {
    p[i] = static_cast<char>(i >> 12);
  }
  size_t root = env_->PushRoot(big);
  env_->ChurnYoung(8 * 1024 * 1024);
  env_->collector->CollectFull(&env_->ctx);
  Object* after = env_->Root(root);
  EXPECT_EQ(after, big);  // humongous objects never move
  char* q = after->DataArrayBytes();
  for (size_t i = 0; i < 2 * 1024 * 1024; i += 4096) {
    ASSERT_EQ(q[i], static_cast<char>(i >> 12));
  }
}

TEST_F(RegionalCollectorTest, GlobalRefKeepsObjectAliveAndUpdated) {
  Start(32, GcConfig{});
  Object* obj = env_->AllocInstance(node_cls_);
  *reinterpret_cast<uint64_t*>(obj->payload() + 8) = 42;
  GlobalRef ref(&env_->heap->roots(), obj);
  env_->ChurnYoung(16 * 1024 * 1024);
  ASSERT_NE(ref.get(), nullptr);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(ref.get()->payload() + 8), 42u);
}

TEST_F(RegionalCollectorTest, PauseRecordsAccumulateWithKinds) {
  Start(32, GcConfig{});
  env_->ChurnYoung(20 * 1024 * 1024);
  auto pauses = env_->collector->metrics().Pauses();
  ASSERT_FALSE(pauses.empty());
  for (const auto& p : pauses) {
    EXPECT_GT(p.duration_ns, 0u);
    EXPECT_GT(p.start_ns, 0u);
  }
  EXPECT_GE(env_->PausesOfKind(PauseKind::kYoung), 1u);
  EXPECT_EQ(env_->collector->metrics().GcCycles(), pauses.size());
}

TEST_F(RegionalCollectorTest, OomReturnsNullptrNotCrash) {
  GcConfig cfg;
  Start(8, cfg);
  // Keep everything alive until the heap cannot hold more.
  size_t root = env_->PushRoot(nullptr);
  Object* last = nullptr;
  for (int i = 0; i < 10000; i++) {
    Object* pair = env_->AllocRefArray(2);
    if (pair == nullptr) {
      last = pair;
      break;
    }
    env_->SetElem(pair, 0, env_->Root(root));
    size_t rp = env_->PushRoot(pair);
    Object* data = env_->AllocDataArray(16 * 1024);
    if (data == nullptr) {
      last = data;
      break;
    }
    env_->SetElem(env_->Root(rp), 1, data);
    env_->SetRoot(root, env_->Root(rp));
    env_->PopRoots(rp);
  }
  EXPECT_EQ(last, nullptr);  // loop ended via break with nullptr
}

TEST_F(RegionalCollectorTest, MultithreadedAllocationIntegrity) {
  GcConfig cfg;
  cfg.num_workers = 2;
  // Small heap so the workers' churn forces several collections.
  Start(24, cfg);
  constexpr int kThreads = 3;
  constexpr int kNodes = 400;
  std::vector<std::thread> threads;
  std::vector<GlobalRef> heads(kThreads);
  ClassId node_cls = node_cls_;
  for (int t = 0; t < kThreads; t++) {
    heads[t] = GlobalRef(&env_->heap->roots(), nullptr);
  }
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      MutatorContext ctx;
      env_->safepoints.RegisterThread(&ctx);
      auto alloc = [&](const AllocRequest& req) -> Object* {
        char* mem = ctx.tlab.Allocate(req.total_bytes);
        if (mem != nullptr) {
          return env_->heap->InitializeObject(mem, req.cls, req.total_bytes,
                                              req.array_length, req.context);
        }
        return env_->collector->AllocateSlow(&ctx, req).object;
      };
      for (int i = 0; i < kNodes; i++) {
        AllocRequest nreq;
        nreq.cls = node_cls;
        nreq.total_bytes = env_->heap->InstanceAllocSize(node_cls);
        Object* node = alloc(nreq);
        ASSERT_NE(node, nullptr);
        *reinterpret_cast<uint64_t*>(node->payload() + 8) =
            static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i);
        env_->heap->StoreRef(node, node->RefSlotAt(0), heads[t].get());
        heads[t].set(node);
        // Garbage to force GCs.
        AllocRequest dreq;
        dreq.cls = env_->heap->classes().data_array_class();
        dreq.total_bytes = env_->heap->DataArrayAllocSize(8192);
        dreq.array_length = 8192;
        ASSERT_NE(alloc(dreq), nullptr);
        env_->safepoints.Poll(&ctx);
      }
      env_->collector->OnMutatorExit(&ctx);
      env_->safepoints.UnregisterThread(&ctx);
    });
  }
  {
    // The main test thread is a registered mutator; mark it safe while it
    // blocks in join so worker-triggered collections can stop the world.
    SafepointManager::ScopedSafeRegion safe(&env_->safepoints, &env_->ctx);
    for (auto& th : threads) {
      th.join();
    }
  }
  for (int t = 0; t < kThreads; t++) {
    int count = 0;
    Object* node = heads[t].get();
    uint64_t expected = kNodes - 1;
    while (node != nullptr) {
      uint64_t v = *reinterpret_cast<uint64_t*>(node->payload() + 8);
      ASSERT_EQ(v >> 32, static_cast<uint64_t>(t));
      ASSERT_EQ(v & 0xFFFFFFFF, expected);
      expected--;
      count++;
      node = env_->heap->LoadRef(node->RefSlotAt(0));
    }
    EXPECT_EQ(count, kNodes);
  }
}

}  // namespace
}  // namespace rolp
