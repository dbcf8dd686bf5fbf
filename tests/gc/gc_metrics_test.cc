#include "src/gc/gc_metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/runtime/thread.h"
#include "src/runtime/vm.h"
#include "src/util/metrics_registry.h"

namespace rolp {
namespace {

PauseRecord Rec(uint64_t start_ns, uint64_t dur_ns) {
  return PauseRecord{start_ns, dur_ns, PauseKind::kYoung, 0};
}

TEST(GcMetricsTest, PauseLogDefaultsKeepEverySmallRun) {
  GcMetrics m;
  EXPECT_EQ(m.pause_log_cap(), GcMetrics::kDefaultPauseLogCap);
  for (uint64_t i = 0; i < 100; i++) {
    m.RecordPause(Rec(i, i + 1));
  }
  EXPECT_EQ(m.Pauses().size(), 100u);
  EXPECT_EQ(m.PauseCount(), 100u);
}

TEST(GcMetricsTest, PauseLogRingKeepsNewestInOrder) {
  GcMetrics m;
  m.set_pause_log_cap(4);
  for (uint64_t i = 0; i < 10; i++) {
    m.RecordPause(Rec(i, 10 * (i + 1)));
  }
  std::vector<PauseRecord> pauses = m.Pauses();
  // The retained window is the newest 4 records, oldest first.
  ASSERT_EQ(pauses.size(), 4u);
  EXPECT_EQ(pauses[0].start_ns, 6u);
  EXPECT_EQ(pauses[1].start_ns, 7u);
  EXPECT_EQ(pauses[2].start_ns, 8u);
  EXPECT_EQ(pauses[3].start_ns, 9u);
}

TEST(GcMetricsTest, AggregatesStayAllTimeWhenRingWraps) {
  GcMetrics m;
  m.set_pause_log_cap(2);
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t i = 1; i <= 50; i++) {
    m.RecordPause(Rec(i, i * 100));
    total += i * 100;
    max = i * 100;
  }
  // The ring dropped 48 records, but count / total / max / percentiles are
  // fed from the all-time accumulators and histogram, not the window.
  EXPECT_EQ(m.Pauses().size(), 2u);
  EXPECT_EQ(m.PauseCount(), 50u);
  EXPECT_EQ(m.TotalPauseNs(), total);
  EXPECT_EQ(m.MaxPauseNs(), max);
  EXPECT_GE(m.PausePercentileNs(100.0), max);
  LogHistogram hist = m.PauseHistogramSnapshot();
  EXPECT_EQ(hist.Count(), 50u);
}

TEST(GcMetricsTest, ShrinkingCapKeepsNewestRecords) {
  GcMetrics m;
  m.set_pause_log_cap(8);
  for (uint64_t i = 0; i < 8; i++) {
    m.RecordPause(Rec(i, 1));
  }
  m.set_pause_log_cap(3);
  std::vector<PauseRecord> pauses = m.Pauses();
  ASSERT_EQ(pauses.size(), 3u);
  EXPECT_EQ(pauses[0].start_ns, 5u);
  EXPECT_EQ(pauses[2].start_ns, 7u);
  // The shrunk ring keeps rotating correctly.
  m.RecordPause(Rec(100, 1));
  pauses = m.Pauses();
  ASSERT_EQ(pauses.size(), 3u);
  EXPECT_EQ(pauses[0].start_ns, 6u);
  EXPECT_EQ(pauses[2].start_ns, 100u);
}

TEST(GcMetricsTest, RecentMeanUsesRetainedWindow) {
  GcMetrics m;
  m.set_pause_log_cap(4);
  for (uint64_t i = 0; i < 10; i++) {
    m.RecordPause(Rec(i, 100));
  }
  m.RecordPause(Rec(10, 500));
  // Window now holds durations {100, 100, 100, 500}.
  EXPECT_DOUBLE_EQ(m.RecentMeanPauseNs(2), 300.0);
  EXPECT_DOUBLE_EQ(m.RecentMeanPauseNs(4), 200.0);
  // Asking for more than the window holds falls back to the whole window.
  EXPECT_DOUBLE_EQ(m.RecentMeanPauseNs(100), 200.0);
}

TEST(GcMetricsTest, CapComesFromEnvironment) {
  ASSERT_EQ(setenv("ROLP_PAUSE_LOG_CAP", "3", 1), 0);
  GcMetrics m;
  ASSERT_EQ(unsetenv("ROLP_PAUSE_LOG_CAP"), 0);
  EXPECT_EQ(m.pause_log_cap(), 3u);
  for (uint64_t i = 0; i < 7; i++) {
    m.RecordPause(Rec(i, 1));
  }
  EXPECT_EQ(m.Pauses().size(), 3u);
  EXPECT_EQ(m.PauseCount(), 7u);
}

TEST(GcMetricsTest, ResetClearsRingAndAggregates) {
  GcMetrics m;
  m.set_pause_log_cap(2);
  for (uint64_t i = 0; i < 5; i++) {
    m.RecordPause(Rec(i, 100));
  }
  m.Reset();
  EXPECT_TRUE(m.Pauses().empty());
  EXPECT_EQ(m.PauseCount(), 0u);
  EXPECT_EQ(m.TotalPauseNs(), 0u);
  EXPECT_EQ(m.MaxPauseNs(), 0u);
  m.RecordPause(Rec(9, 7));
  ASSERT_EQ(m.Pauses().size(), 1u);
  EXPECT_EQ(m.Pauses()[0].start_ns, 9u);
  EXPECT_EQ(m.PauseCount(), 1u);
}

// The VM publishes the largest single-worker share of copied bytes as
// gc.max_worker_share, read straight from GcMetrics.
TEST(GcMetricsTest, VmPublishesMaxWorkerShare) {
  VmConfig cfg;
  cfg.heap_mb = 32;
  cfg.gc = GcKind::kG1;
  cfg.gc_config.num_workers = 2;
  cfg.metrics_prefix = "max_share_test.";
  VM vm(cfg);
  RuntimeThread* thread = vm.AttachThread();
  {
    // Live objects for the young GC to copy.
    HandleScope scope(*thread);
    Local list = thread->NewLocal(thread->AllocateRefArray(RuntimeThread::kNoSite, 512));
    for (uint64_t i = 0; i < 512; i++) {
      Object* data = thread->AllocateDataArray(RuntimeThread::kNoSite, 256);
      ASSERT_NE(data, nullptr);
      thread->StoreElem(list.get(), i, data);
    }
    const uint64_t cycles_before = vm.collector().metrics().GcCycles();
    while (vm.collector().metrics().GcCycles() == cycles_before) {
      ASSERT_NE(thread->AllocateDataArray(RuntimeThread::kNoSite, 8192), nullptr);
    }
  }
  const double expected = vm.collector().metrics().MaxWorkerCopiedShare();
  double published = -1.0;
  for (const auto& [name, value] : MetricsRegistry::Instance().Collect().gauges) {
    if (name == "max_share_test.gc.max_worker_share") {
      published = value;
    }
  }
  EXPECT_DOUBLE_EQ(published, expected);
  // Two workers: the larger share is at least half of everything copied.
  EXPECT_GE(published, 0.5);
  EXPECT_LE(published, 1.0);
  vm.DetachThread(thread);
}

// CMS young pauses run on the shared copy engine and publish the same pause
// counters as the regional collectors: per-worker copied bytes that sum to
// the total, in-pause evacuation time and evacuate-phase CPU.
TEST(GcMetricsTest, CmsYoungPausesPublishPauseCounters) {
  VmConfig cfg;
  cfg.heap_mb = 32;
  cfg.gc = GcKind::kCms;
  cfg.gc_config.num_workers = 2;
  cfg.metrics_prefix = "cms_counters_test.";
  VM vm(cfg);
  RuntimeThread* thread = vm.AttachThread();
  const GcMetrics& m = vm.collector().metrics();
  {
    HandleScope scope(*thread);
    Local list = thread->NewLocal(thread->AllocateRefArray(RuntimeThread::kNoSite, 512));
    for (uint64_t i = 0; i < 512; i++) {
      Object* data = thread->AllocateDataArray(RuntimeThread::kNoSite, 256);
      ASSERT_NE(data, nullptr);
      thread->StoreElem(list.get(), i, data);
    }
    const uint64_t cycles_before = m.GcCycles();
    while (m.GcCycles() == cycles_before) {
      ASSERT_NE(thread->AllocateDataArray(RuntimeThread::kNoSite, 8192), nullptr);
    }
  }
  ASSERT_GT(m.BytesCopied(), 0u);
  EXPECT_EQ(m.WorkerCopiedBytes(0) + m.WorkerCopiedBytes(1), m.BytesCopied());
  EXPECT_GT(m.PauseEvacNs(), 0u);
  EXPECT_GT(m.PhaseCpuNs(static_cast<size_t>(GcPhase::kEvacuate)), 0u);
  vm.DetachThread(thread);
}

}  // namespace
}  // namespace rolp
