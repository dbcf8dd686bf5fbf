#include "src/gc/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "src/gc/gc_metrics.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/util/clock.h"

namespace rolp {
namespace {

constexpr uint64_t kBurnNs = 2 * 1000 * 1000;

// Spins until the calling thread has used `ns` of its own CPU time.
void BurnThreadCpu(uint64_t ns) {
  uint64_t start = ThreadCpuNs();
  while (ThreadCpuNs() - start < ns) {
  }
}

TEST(WorkerPoolTest, RunsTaskOnAllWorkers) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  pool.RunTask([&](uint32_t w) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(WorkerPoolTest, WorkerIdsAreDistinct) {
  WorkerPool pool(3);
  std::mutex mu;
  std::set<uint32_t> ids;
  pool.RunTask([&](uint32_t w) {
    std::lock_guard<std::mutex> guard(mu);
    ids.insert(w);
  });
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(ids.count(0) && ids.count(1) && ids.count(2));
}

TEST(WorkerPoolTest, SequentialTasksReusable) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; i++) {
    pool.RunTask([&](uint32_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 20);
}

TEST(WorkerPoolTest, RunTaskBlocksUntilDone) {
  WorkerPool pool(2);
  std::atomic<int> done{0};
  pool.RunTask([&](uint32_t) {
    for (volatile int i = 0; i < 100000; i++) {
    }
    done.fetch_add(1);
  });
  // If RunTask returned early this could be < 2.
  EXPECT_EQ(done.load(), 2);
}

TEST(WorkerPoolTest, SingleWorkerPool) {
  WorkerPool pool(1);
  int value = 0;
  pool.RunTask([&](uint32_t w) {
    EXPECT_EQ(w, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

// Worker-thread CPU of a dispatch is booked to the dispatching thread's
// sink; without a sink, dispatches still run and nothing is booked.
TEST(WorkerPoolTest, WorkerCpuSinkCountsWorkerBodies) {
  WorkerPool pool(2);
  pool.RunTask([](uint32_t) { BurnThreadCpu(kBurnNs); });
  WorkerCpuSink sink;
  pool.RunTask([](uint32_t) { BurnThreadCpu(kBurnNs); });
  EXPECT_GE(sink.ns(), 2 * kBurnNs);
  uint64_t after_one = sink.ns();
  pool.ParallelFor(2, 1, [](uint32_t, size_t, size_t) { BurnThreadCpu(kBurnNs); });
  EXPECT_GE(sink.ns(), after_one + kBurnNs);
}

// A nested sink collects its own dispatches and hands them to the outer one
// when it ends, the way nested thread-CPU deltas include each other.
TEST(WorkerPoolTest, NestedWorkerCpuSinkCountsTowardOuter) {
  WorkerPool pool(2);
  WorkerCpuSink outer;
  {
    WorkerCpuSink inner;
    pool.RunTask([](uint32_t) { BurnThreadCpu(kBurnNs); });
    EXPECT_GE(inner.ns(), 2 * kBurnNs);
    EXPECT_EQ(outer.ns(), 0u);
  }
  EXPECT_GE(outer.ns(), 2 * kBurnNs);
}

// The phase CPU slot covers the workers, not only the coordinating thread,
// which merely waits in RunTask.
TEST(WorkerPoolTest, PhaseScopeChargesWorkerCpuToPhase) {
  WorkerPool pool(2);
  GcMetrics metrics;
  {
    WatchdogPhaseScope scope(nullptr, GcPhase::kEvacuate, nullptr, &metrics);
    pool.RunTask([](uint32_t) { BurnThreadCpu(kBurnNs); });
  }
  EXPECT_GE(metrics.PhaseCpuNs(static_cast<size_t>(GcPhase::kEvacuate)), 2 * kBurnNs);
  EXPECT_EQ(metrics.PhaseCpuNs(static_cast<size_t>(GcPhase::kMark)), 0u);
}

}  // namespace
}  // namespace rolp
