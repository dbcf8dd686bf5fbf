#include "src/runtime/vm.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/gc/regional_collector.h"
#include "src/runtime/frame.h"
#include "src/runtime/thread.h"

namespace rolp {
namespace {

VmConfig SmallVm(GcKind gc = GcKind::kG1) {
  VmConfig cfg;
  cfg.heap_mb = 32;
  cfg.gc = gc;
  cfg.jit.hot_threshold = 5;
  cfg.rolp.inference_period = 4;
  cfg.rolp.old_table_entries = 4096;
  return cfg;
}

TEST(VmFlagsTest, ParsesHeapAndCollector) {
  VmConfig cfg;
  std::string err;
  ASSERT_TRUE(VmConfig::ParseFlags({"-Xmx512m", "-XX:GC=cms"}, &cfg, &err)) << err;
  EXPECT_EQ(cfg.heap_mb, 512u);
  EXPECT_EQ(cfg.gc, GcKind::kCms);
}

TEST(VmFlagsTest, UseRolpShorthand) {
  VmConfig cfg;
  ASSERT_TRUE(VmConfig::ParseFlags({"-XX:+UseROLP"}, &cfg, nullptr));
  EXPECT_EQ(cfg.gc, GcKind::kRolp);
}

TEST(VmFlagsTest, GigabyteSuffix) {
  VmConfig cfg;
  ASSERT_TRUE(VmConfig::ParseFlags({"-Xmx2g"}, &cfg, nullptr));
  EXPECT_EQ(cfg.heap_mb, 2048u);
}

TEST(VmFlagsTest, FilterList) {
  VmConfig cfg;
  ASSERT_TRUE(
      VmConfig::ParseFlags({"-XX:ROLPFilter=cassandra.db,cassandra.utils"}, &cfg, nullptr));
  EXPECT_TRUE(cfg.filter.ShouldProfile("cassandra.db.X::m"));
  EXPECT_TRUE(cfg.filter.ShouldProfile("cassandra.utils.Y::m"));
  EXPECT_FALSE(cfg.filter.ShouldProfile("cassandra.net.Z::m"));
}

TEST(VmFlagsTest, TenuringAndConflictPAndWorkers) {
  VmConfig cfg;
  ASSERT_TRUE(VmConfig::ParseFlags(
      {"-XX:MaxTenuringThreshold=4", "-XX:ROLPConflictP=10", "-XX:ParallelGCThreads=3"}, &cfg,
      nullptr));
  EXPECT_EQ(cfg.gc_config.tenuring_threshold, 4u);
  EXPECT_DOUBLE_EQ(cfg.rolp.conflict_p, 0.10);
  EXPECT_EQ(cfg.gc_config.num_workers, 3u);
}

TEST(VmFlagsTest, UnknownFlagRejected) {
  VmConfig cfg;
  std::string err;
  EXPECT_FALSE(VmConfig::ParseFlags({"-XX:Bogus"}, &cfg, &err));
  EXPECT_NE(err.find("Bogus"), std::string::npos);
}

class VmTest : public ::testing::Test {
 protected:
  void Boot(GcKind gc) {
    vm_ = std::make_unique<VM>(SmallVm(gc));
    thread_ = vm_->AttachThread();
    node_cls_ = vm_->heap().classes().RegisterInstance("Node", 24, {0});
    method_ = vm_->jit().RegisterMethod("app.Main::op", 100);
    site_ = vm_->jit().RegisterAllocSite(method_);
  }

  void TearDown() override {
    if (thread_ != nullptr) {
      vm_->DetachThread(thread_);
    }
    vm_.reset();
  }

  void Churn(size_t bytes) {
    const uint64_t n = 8192;
    size_t done = 0;
    while (done < bytes) {
      ASSERT_NE(thread_->AllocateDataArray(RuntimeThread::kNoSite, n), nullptr);
      done += n + 24;
    }
  }

  std::unique_ptr<VM> vm_;
  RuntimeThread* thread_ = nullptr;
  ClassId node_cls_ = 0;
  MethodId method_ = 0;
  uint32_t site_ = 0;
};

TEST_F(VmTest, BootsEveryCollector) {
  for (GcKind gc :
       {GcKind::kG1, GcKind::kCms, GcKind::kZgc, GcKind::kNg2c, GcKind::kRolp}) {
    VmConfig cfg = SmallVm(gc);
    VM vm(cfg);
    RuntimeThread* t = vm.AttachThread();
    ClassId cls = vm.heap().classes().RegisterInstance("X", 8, {});
    Object* obj = t->AllocateInstance(RuntimeThread::kNoSite, cls);
    EXPECT_NE(obj, nullptr) << GcKindName(gc);
    vm.DetachThread(t);
  }
}

TEST_F(VmTest, ProfilerOnlyExistsForRolp) {
  Boot(GcKind::kG1);
  EXPECT_EQ(vm_->profiler(), nullptr);
  VM rolp_vm(SmallVm(GcKind::kRolp));
  EXPECT_NE(rolp_vm.profiler(), nullptr);
}

TEST_F(VmTest, ColdAllocationHasNoContext) {
  Boot(GcKind::kRolp);
  Object* obj = thread_->AllocateInstance(site_, node_cls_);
  // Method not yet jitted: allocation site unprofiled.
  EXPECT_EQ(markword::Context(obj->LoadMark()), 0u);
}

TEST_F(VmTest, HotAllocationInstallsContext) {
  Boot(GcKind::kRolp);
  vm_->jit().Compile(method_);
  Object* obj = thread_->AllocateInstance(site_, node_cls_);
  uint32_t ctx = markword::Context(obj->LoadMark());
  EXPECT_NE(ctx, 0u);
  EXPECT_EQ(markword::ContextSite(ctx),
            vm_->jit().alloc_site(site_).site_id.load());
  EXPECT_EQ(markword::ContextTss(ctx), 0u);  // no call tracking yet
  // And the OLD table saw it.
  EXPECT_TRUE(vm_->profiler()->old_table().Contains(ctx));
}

TEST_F(VmTest, MethodFrameUpdatesTssOnlyWhenTracked) {
  Boot(GcKind::kRolp);
  MethodId callee = vm_->jit().RegisterMethod("app.Lib::helper", 200);
  uint32_t cs = vm_->jit().RegisterCallSite(method_, callee);
  vm_->jit().CompileAll();
  EXPECT_EQ(thread_->tss(), 0u);
  {
    MethodFrame f(*thread_, cs);
    EXPECT_EQ(thread_->tss(), 0u);  // fast branch
  }
  ASSERT_EQ(vm_->jit().NumProfilableCallSites(), 1u);
  vm_->jit().SetCallSiteTracking(0, true);
  uint16_t h = vm_->jit().call_site(cs).assigned_hash;
  {
    MethodFrame f(*thread_, cs);
    EXPECT_EQ(thread_->tss(), h);  // slow branch: added
    {
      MethodFrame g(*thread_, cs);
      EXPECT_EQ(thread_->tss(), static_cast<uint16_t>(2 * h));
    }
    EXPECT_EQ(thread_->tss(), h);
  }
  EXPECT_EQ(thread_->tss(), 0u);  // subtracted on exit
}

TEST_F(VmTest, TrackedCallChangesAllocationContext) {
  Boot(GcKind::kRolp);
  MethodId callee = vm_->jit().RegisterMethod("app.Lib::helper", 200);
  uint32_t cs = vm_->jit().RegisterCallSite(method_, callee);
  vm_->jit().CompileAll();
  vm_->jit().SetCallSiteTracking(0, true);
  Object* direct = thread_->AllocateInstance(site_, node_cls_);
  uint32_t ctx_direct = markword::Context(direct->LoadMark());
  uint32_t ctx_nested;
  {
    MethodFrame f(*thread_, cs);
    Object* nested = thread_->AllocateInstance(site_, node_cls_);
    ctx_nested = markword::Context(nested->LoadMark());
  }
  // Same allocation site, different call path -> different context
  // (paper section 3.2.1).
  EXPECT_EQ(markword::ContextSite(ctx_direct), markword::ContextSite(ctx_nested));
  EXPECT_NE(ctx_direct, ctx_nested);
}

TEST_F(VmTest, ExceptionUnwindKeepsTssConsistent) {
  Boot(GcKind::kRolp);
  MethodId callee = vm_->jit().RegisterMethod("app.Lib::helper", 200);
  uint32_t cs = vm_->jit().RegisterCallSite(method_, callee);
  vm_->jit().CompileAll();
  vm_->jit().SetCallSiteTracking(0, true);
  uint64_t fixups_before = thread_->exception_fixups();
  try {
    MethodFrame f1(*thread_, cs);
    MethodFrame f2(*thread_, cs);
    MethodFrame f3(*thread_, cs);
    throw GuestException("boom");
  } catch (const GuestException&) {
  }
  // Paper section 7.2.2: unwinding must leave the stack state consistent.
  EXPECT_EQ(thread_->tss(), 0u);
  EXPECT_EQ(thread_->exception_fixups(), fixups_before + 3);
}

TEST_F(VmTest, OsrCorruptionIsInjectedAndRepairedAtGcEnd) {
  VmConfig cfg = SmallVm(GcKind::kRolp);
  cfg.osr_corruption_rate = 0.5;
  vm_ = std::make_unique<VM>(cfg);
  thread_ = vm_->AttachThread();
  node_cls_ = vm_->heap().classes().RegisterInstance("Node", 24, {0});
  method_ = vm_->jit().RegisterMethod("app.Main::op", 100);
  MethodId callee = vm_->jit().RegisterMethod("app.Lib::helper", 200);
  uint32_t cs = vm_->jit().RegisterCallSite(method_, callee);
  vm_->jit().CompileAll();
  for (int i = 0; i < 100; i++) {
    MethodFrame f(*thread_, cs);
  }
  EXPECT_GT(thread_->osr_injected(), 0u);
  // Force a GC: verification runs at the pause end and repairs.
  vm_->collector().CollectFull(&thread_->gc_context());
  EXPECT_EQ(thread_->tss(), thread_->ExpectedTss());
  EXPECT_GT(vm_->total_osr_repaired(), 0u);
}

TEST_F(VmTest, BiasedLockDiscardsProfilingInfo) {
  Boot(GcKind::kRolp);
  vm_->jit().Compile(method_);
  Object* obj = thread_->AllocateInstance(site_, node_cls_);
  ASSERT_NE(markword::Context(obj->LoadMark()), 0u);
  thread_->BiasLock(obj);
  EXPECT_TRUE(markword::IsBiased(obj->LoadMark()));
  EXPECT_EQ(markword::BiasOwner(obj->LoadMark()), thread_->thread_id());
  thread_->BiasUnlock(obj);
  // The context was destroyed by the lock, exactly as in the paper.
  EXPECT_EQ(markword::Context(obj->LoadMark()), 0u);
}

TEST_F(VmTest, HandleScopeReleasesLocals) {
  Boot(GcKind::kG1);
  size_t depth = thread_->local_depth();
  {
    HandleScope scope(*thread_);
    Object* obj = thread_->AllocateInstance(RuntimeThread::kNoSite, node_cls_);
    Local h = thread_->NewLocal(obj);
    EXPECT_EQ(h.get(), obj);
    EXPECT_EQ(thread_->local_depth(), depth + 1);
  }
  EXPECT_EQ(thread_->local_depth(), depth);
}

TEST_F(VmTest, LocalsKeepObjectsAliveAcrossGc) {
  Boot(GcKind::kG1);
  HandleScope scope(*thread_);
  Object* obj = thread_->AllocateInstance(RuntimeThread::kNoSite, node_cls_);
  *reinterpret_cast<uint64_t*>(obj->payload() + 8) = 0xCAFE;
  Local h = thread_->NewLocal(obj);
  Churn(24 * 1024 * 1024);
  ASSERT_NE(h.get(), nullptr);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(h.get()->payload() + 8), 0xCAFEu);
}

TEST_F(VmTest, RolpLearnsToPretenureEndToEnd) {
  // The headline behaviour: a long-lived allocation site ends up pretenured
  // into a dynamic generation with zero annotations.
  VmConfig cfg = SmallVm(GcKind::kRolp);
  cfg.rolp.inference_period = 4;
  vm_ = std::make_unique<VM>(cfg);
  thread_ = vm_->AttachThread();
  node_cls_ = vm_->heap().classes().RegisterInstance("Node", 24, {0});
  method_ = vm_->jit().RegisterMethod("app.Cache::put", 100);
  site_ = vm_->jit().RegisterAllocSite(method_);
  vm_->jit().Compile(method_);

  HandleScope scope(*thread_);
  // A rolling window: objects from this site live several GC cycles.
  constexpr int kWindow = 2000;
  std::vector<Local> window;
  window.reserve(kWindow);
  for (int i = 0; i < kWindow; i++) {
    window.push_back(thread_->NewLocal(nullptr));
  }
  bool saw_pretenured = false;
  for (int round = 0; round < 30000 && !saw_pretenured; round++) {
    Object* obj = thread_->AllocateInstance(site_, node_cls_);
    ASSERT_NE(obj, nullptr);
    window[round % kWindow].set(obj);
    // Garbage filler drives frequent young collections.
    ASSERT_NE(thread_->AllocateDataArray(RuntimeThread::kNoSite, 4096), nullptr);
    if (round % 256 == 0) {
      uint32_t ctx = markword::MakeContext(
          vm_->jit().alloc_site(site_).site_id.load(), thread_->tss());
      if (vm_->profiler()->TargetGen(ctx) > 0) {
        saw_pretenured = true;
      }
    }
  }
  EXPECT_TRUE(saw_pretenured) << "profiler never pretenured the long-lived site";
  // And newly allocated objects from the site now land in a dynamic gen.
  Object* obj = thread_->AllocateInstance(site_, node_cls_);
  Region* r = vm_->heap().regions().RegionFor(obj);
  EXPECT_TRUE(r->kind() == RegionKind::kGen || r->kind() == RegionKind::kOld);
}

// Unsets every ROLP_* environment variable for its lifetime, so a VM built
// inside sees the defaults whatever the caller's shell exports.
class ScopedNoRolpEnvironment {
 public:
  ScopedNoRolpEnvironment() {
    for (char** e = environ; *e != nullptr; e++) {
      std::string entry(*e);
      size_t eq = entry.find('=');
      if (entry.rfind("ROLP_", 0) == 0 && eq != std::string::npos) {
        saved_.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
      }
    }
    for (const auto& [name, value] : saved_) {
      unsetenv(name.c_str());
    }
  }
  ~ScopedNoRolpEnvironment() {
    for (const auto& [name, value] : saved_) {
      setenv(name.c_str(), value.c_str(), 1);
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
};

// The defaults the deleted environment readers used to supply now come from
// the code alone: watchdog on at 5000 ms, an evacuation reserve of 2 regions
// on a heap of 64 regions, one arena, 256 allocation-buffer slots and
// off-pause inference.
TEST_F(VmTest, DefaultsWithNoEnvironment) {
  ScopedNoRolpEnvironment no_env;
  VmConfig cfg = SmallVm(GcKind::kRolp);
  cfg.heap_mb = 64;
  VM vm(cfg);
  ASSERT_NE(vm.collector().watchdog(), nullptr);
  EXPECT_EQ(vm.collector().watchdog()->config().phase_deadline_ms, 5000u);
  ASSERT_GE(vm.heap().regions().num_regions(), 64u);
  EXPECT_EQ(vm.heap().regions().evac_reserve(), 2u);
  EXPECT_EQ(vm.heap().regions().num_arenas(), 1u);
  ASSERT_NE(vm.profiler(), nullptr);
  EXPECT_EQ(vm.profiler()->config().alloc_buffer_slots, 256u);
  EXPECT_TRUE(vm.profiler()->config().async_inference);
}

// A VmConfig setting wins over the environment: with ROLP_CONCURRENT_EVAC
// unset, gc_config.concurrent_evac = true still evacuates concurrently, so
// the cycle ends with a remap pause.
TEST_F(VmTest, ConfigConcurrentEvacWithoutEnvironment) {
  ScopedNoRolpEnvironment no_env;
  VmConfig cfg = SmallVm(GcKind::kG1);
  cfg.gc_config.concurrent_evac = true;
  vm_ = std::make_unique<VM>(cfg);
  thread_ = vm_->AttachThread();
  EXPECT_TRUE(vm_->collector().config().concurrent_evac);
  Churn(48 * 1024 * 1024);
  static_cast<RegionalCollector&>(vm_->collector())
      .WaitForConcurrentCycle(&thread_->gc_context());
  uint64_t remaps = 0;
  for (const PauseRecord& p : vm_->collector().metrics().Pauses()) {
    remaps += p.kind == PauseKind::kRemap ? 1 : 0;
  }
  EXPECT_GE(remaps, 1u);
}

}  // namespace
}  // namespace rolp
