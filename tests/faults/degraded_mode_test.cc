// Profiler degraded mode: OLD-table saturation, implausible histograms, and
// demotion churn clear decisions and suspend profiling instead of feeding bad
// pretenuring hints; after the trouble signal quiets, the profiler re-arms and
// decisions repopulate.
#include <gtest/gtest.h>

#include "src/heap/object.h"
#include "src/rolp/profiler.h"
#include "src/util/fault_injection.h"
#include "src/runtime/vm.h"
#include "src/workloads/kvstore.h"

namespace rolp {
namespace {

uint64_t MarkFor(uint32_t context, uint32_t age) {
  return markword::SetAge(markword::SetContext(0, context), age);
}

class DegradedModeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }

  RolpConfig SmallConfig() {
    RolpConfig cfg;
    cfg.old_table_entries = 4096;
    cfg.inference_period = 4;
    cfg.degrade_dropped_per_cycle = 32;
    cfg.rearm_clean_cycles = 3;
    cfg.degrade_demotion_churn = 2;
    return cfg;
  }

  // Builds a survivor triangle peaking at age 3 and runs one inference, so
  // the profiler holds a real decision for `ctx`.
  void LearnDecision(Profiler& p, uint32_t ctx, uint64_t first_cycle) {
    for (int i = 0; i < 1000; i++) {
      p.RecordAllocation(ctx);
    }
    for (uint32_t age = 0; age < 3; age++) {
      for (int i = 0; i < 1000; i++) {
        p.OnSurvivor(0, MarkFor(ctx, age));
      }
      p.OnGcEnd({first_cycle + age, 1000, PauseKind::kYoung});
    }
    p.RunInferenceNow();
  }

  FaultInjection& fi() { return FaultInjection::Instance(); }
};

TEST_F(DegradedModeTest, OldTableSaturationClearsDecisionsAndStopsTracking) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(20, 0);
  LearnDecision(p, ctx, 1);
  ASSERT_EQ(p.TargetGen(ctx), 3u);
  ASSERT_TRUE(p.SurvivorTrackingEnabled());
  ASSERT_FALSE(p.degraded());

  // Saturate: every sample is dropped for one cycle.
  fi().ArmAlways("rolp.old_table.drop");
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  p.OnGcEnd({5, 1000, PauseKind::kYoung});

  EXPECT_TRUE(p.degraded());
  EXPECT_EQ(p.degraded_entries(), 1u);
  EXPECT_EQ(p.last_degrade_reason(), DegradeReason::kOldTableSaturation);
  EXPECT_EQ(p.TargetGen(ctx), 0u);  // every context reverts to young
  EXPECT_TRUE(p.DecisionsSnapshot().empty());
  EXPECT_FALSE(p.SurvivorTrackingEnabled());
  // Saturation entry also grows the table for post-recovery headroom.
  EXPECT_EQ(p.old_table().grow_count(), 1u);
}

TEST_F(DegradedModeTest, RearmsAfterCleanCyclesAndDecisionsRepopulate) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(20, 0);
  LearnDecision(p, ctx, 1);

  fi().ArmAlways("rolp.old_table.drop");
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  p.OnGcEnd({5, 1000, PauseKind::kYoung});
  ASSERT_TRUE(p.degraded());

  // Still dropping: cycles are dirty, no re-arm.
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  p.OnGcEnd({6, 1000, PauseKind::kYoung});
  EXPECT_TRUE(p.degraded());

  // Fault cleared: after rearm_clean_cycles quiet cycles the profiler exits
  // degraded mode and turns survivor tracking back on.
  fi().Disarm("rolp.old_table.drop");
  p.OnGcEnd({7, 1000, PauseKind::kYoung});
  p.OnGcEnd({8, 1000, PauseKind::kYoung});
  EXPECT_TRUE(p.degraded());  // only 2 clean cycles so far
  p.OnGcEnd({9, 1000, PauseKind::kYoung});
  EXPECT_FALSE(p.degraded());
  EXPECT_TRUE(p.SurvivorTrackingEnabled());
  EXPECT_EQ(p.degraded_entries(), 1u);

  // Fresh signal rebuilds decisions from scratch (cycles 13..15 avoid an
  // inference-period boundary mid-build).
  LearnDecision(p, ctx, 13);
  EXPECT_FALSE(p.DecisionsSnapshot().empty());
  EXPECT_EQ(p.TargetGen(ctx), 3u);
}

TEST_F(DegradedModeTest, RearmGraceSuppressesStableShutOff) {
  RolpConfig cfg = SmallConfig();
  cfg.rearm_clean_cycles = 1;
  cfg.rearm_grace_inferences = 2;
  Profiler p(cfg);
  uint32_t ctx = markword::MakeContext(25, 0);

  fi().ArmAlways("rolp.old_table.drop");
  for (int i = 0; i < 100; i++) {
    p.RecordAllocation(ctx);
  }
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  ASSERT_TRUE(p.degraded());
  fi().Disarm("rolp.old_table.drop");
  p.OnGcEnd({2, 1000, PauseKind::kYoung});
  ASSERT_FALSE(p.degraded());
  ASSERT_TRUE(p.SurvivorTrackingEnabled());

  // Degraded mode cleared everything, so these inferences see a stable empty
  // state — within the grace window that must NOT shut tracking off.
  p.RunInferenceNow();
  p.RunInferenceNow();
  EXPECT_TRUE(p.SurvivorTrackingEnabled());
  // Grace spent: the usual stable-decisions shut-off applies again.
  p.RunInferenceNow();
  p.RunInferenceNow();
  EXPECT_FALSE(p.SurvivorTrackingEnabled());
}

TEST_F(DegradedModeTest, ImplausibleHistogramDegrades) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(30, 0);
  p.RecordAllocation(ctx);
  fi().ArmOnceAtHit("rolp.inference.implausible", 1);
  p.RunInferenceNow();
  EXPECT_TRUE(p.degraded());
  EXPECT_EQ(p.last_degrade_reason(), DegradeReason::kImplausibleHistogram);
  EXPECT_TRUE(p.DecisionsSnapshot().empty());
}

TEST_F(DegradedModeTest, DemotionChurnDegrades) {
  RolpConfig cfg = SmallConfig();
  Profiler p(cfg);
  // Fragmentation feedback thrashing within one inference window.
  p.OnGenFragmentation(3, 0.1);
  EXPECT_FALSE(p.degraded());
  p.OnGenFragmentation(3, 0.1);
  EXPECT_TRUE(p.degraded());
  EXPECT_EQ(p.last_degrade_reason(), DegradeReason::kDemotionChurn);
}

TEST_F(DegradedModeTest, DemotionChurnWindowResetsAtInference) {
  Profiler p(SmallConfig());
  p.OnGenFragmentation(3, 0.1);
  p.RunInferenceNow();  // new window
  p.OnGenFragmentation(3, 0.1);
  EXPECT_FALSE(p.degraded());  // 1 churn per window: under the threshold
}

TEST_F(DegradedModeTest, SurvivorDropFaultStarvesHistograms) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(40, 0);
  p.RecordAllocation(ctx);
  fi().ArmAlways("rolp.survivor.drop");
  p.OnSurvivor(0, MarkFor(ctx, 0));
  p.OnGcEnd({1, 1000, PauseKind::kYoung});
  EXPECT_EQ(p.survivors_dropped(), 1u);
  EXPECT_EQ(p.survivors_seen(), 0u);
  EXPECT_EQ(p.old_table().Row(ctx)[1], 0u);
}

TEST_F(DegradedModeTest, InjectedConflictGrowsTable) {
  Profiler p(SmallConfig());
  fi().ArmOnceAtHit("rolp.inference.conflict", 1);
  p.RunInferenceNow();
  EXPECT_EQ(p.conflicts_total(), 1u);
  EXPECT_EQ(p.old_table().grow_count(), 1u);
  EXPECT_FALSE(p.degraded());  // conflicts are normal operation, not trouble
}

// Minimal CallSiteControl so the resolver's reaction to an injected spurious
// conflict is observable without a VM.
class FakeCallSites : public CallSiteControl {
 public:
  explicit FakeCallSites(size_t n) : enabled_(n, false) {}
  size_t NumProfilableCallSites() const override { return enabled_.size(); }
  void SetCallSiteTracking(size_t index, bool enabled) override { enabled_[index] = enabled; }
  bool CallSiteTracking(size_t index) const override { return enabled_[index]; }
  size_t EnabledCount() const {
    size_t n = 0;
    for (bool b : enabled_) {
      n += b ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<bool> enabled_;
};

TEST_F(DegradedModeTest, SpuriousResolverConflictStartsTrialRound) {
  FakeCallSites sites(50);
  ConflictResolver resolver(&sites, 0.2);
  fi().ArmOnceAtHit("rolp.resolver.spurious_conflict", 1);
  resolver.OnInference({});  // no real conflicts; the fault injects one
  EXPECT_EQ(resolver.phase(), ConflictResolver::Phase::kTrying);
  EXPECT_GT(sites.EnabledCount(), 0u);
}

// End-to-end: a real workload saturates the OLD table mid-run via the drop
// fail point. The run must continue, degrade (TargetGen -> 0), then re-arm
// after the fault clears and repopulate decisions. The oracle counts GC
// cycles and inference rounds, not seconds: the fault clears a fixed number of
// cycles after degraded mode is entered, and after the re-arm the run goes on
// for a fixed number of inference rounds before the end state is read, so a
// slow or loaded machine only makes the run longer. The cycle cap bounds a
// profiler that never re-arms.
TEST_F(DegradedModeTest, WorkloadSaturationRecoversAndRepopulates) {
  VmConfig cfg;
  cfg.heap_mb = 48;
  cfg.gc = GcKind::kRolp;
  cfg.jit.hot_threshold = 50;
  cfg.young_fraction = 0.12;
  cfg.rolp.inference_period = 4;
  cfg.rolp.old_table_entries = 1 << 14;
  cfg.rolp.degrade_dropped_per_cycle = 64;
  cfg.rolp.rearm_clean_cycles = 2;
  constexpr uint64_t kFaultCyclesAfterDegrade = 8;
  constexpr uint64_t kPostRearmInferences = 4;
  constexpr uint64_t kMaxCycles = 2000;

  KvStoreOptions kv;
  kv.num_keys = 12000;
  kv.value_bytes = 512;
  kv.memtable_flush_rows = 6000;
  KvStoreWorkload w(kv);
  w.ConfigureFilter(&cfg.filter);
  VM vm(cfg);
  ASSERT_NE(vm.profiler(), nullptr);
  Profiler& p = *vm.profiler();
  const GcMetrics& gm = vm.collector().metrics();
  RuntimeThread* t = vm.AttachThread();
  w.Setup(vm, *t);

  fi().ArmAlways("rolp.old_table.drop");
  uint64_t op = 0;
  auto run_until = [&](auto done) {
    while (!done() && gm.GcCycles() < kMaxCycles) {
      w.Op(*t, op++);
      t->Poll();
    }
  };
  // Saturate until the profiler degrades, and keep dropping for a few more
  // cycles so the fault outlives the transition.
  run_until([&] { return p.degraded_entries() > 0; });
  EXPECT_GE(p.degraded_entries(), 1u) << "no degrade within " << kMaxCycles << " cycles";
  const uint64_t clear_at = gm.GcCycles() + kFaultCyclesAfterDegrade;
  run_until([&] { return gm.GcCycles() >= clear_at; });
  fi().Disarm("rolp.old_table.drop");
  EXPECT_GT(p.old_table().dropped_samples(), 0u);

  // Fault cleared: wait for the re-arm, then run a fixed number of inference
  // rounds on fresh histograms. The end state is read only after them.
  run_until([&] { return !p.degraded(); });
  const uint64_t rearm_inferences = p.inferences_run();
  run_until([&] { return p.inferences_run() >= rearm_inferences + kPostRearmInferences; });
  const uint64_t cycles = gm.GcCycles();
  const uint64_t post_rearm_inferences = p.inferences_run() - rearm_inferences;
  const bool degraded_at_end = p.degraded();
  const uint64_t decisions_at_end = p.decisions_count();
  vm.DetachThread(t);
  w.Teardown();

  EXPECT_GT(op, 0u);  // the run kept going despite saturation
  EXPECT_GE(post_rearm_inferences, kPostRearmInferences)
      << "no re-arm and " << kPostRearmInferences << " inferences within " << kMaxCycles
      << " cycles";
  EXPECT_FALSE(degraded_at_end) << "still degraded after " << cycles << " cycles";
  EXPECT_GT(decisions_at_end, 0u) << "no decisions after " << cycles << " cycles";
}

}  // namespace
}  // namespace rolp
