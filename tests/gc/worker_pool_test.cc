#include "src/gc/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/gc/gc_metrics.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/runtime/thread.h"
#include "src/runtime/vm.h"
#include "src/util/clock.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics_registry.h"

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

// Inside one bracket the workers never park, however many dispatches run
// back to back: every RunTask item id runs exactly once per dispatch and
// every ParallelFor index is covered exactly once.
TEST(WorkerPoolTest, BracketedBackToBackDispatchesRunEveryItemOnce) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kDispatches = 10000;
  WorkerPool pool(kWorkers);
  WorkerPool::PauseBracket bracket(&pool);
  const uint64_t parks_at_open = pool.parks();
  const uint64_t dispatches_at_open = pool.dispatches();
  std::atomic<uint32_t> runs[kWorkers];
  std::vector<std::atomic<uint32_t>> covered(64);
  for (int d = 0; d < kDispatches; d++) {
    // Mixed cost: most items are empty, some spin a little.
    const uint32_t spin = d % 7 == 0 ? 2000 : 0;
    if (d % 2 == 0) {
      for (auto& r : runs) {
        r.store(0, std::memory_order_relaxed);
      }
      pool.RunTask([&](uint32_t w) {
        for (volatile uint32_t i = 0; i < spin * (w + 1); i = i + 1) {
        }
        runs[w].fetch_add(1, std::memory_order_relaxed);
      });
      for (uint32_t w = 0; w < kWorkers; w++) {
        ASSERT_EQ(runs[w].load(), 1u) << "dispatch " << d << " item " << w;
      }
    } else {
      const size_t count = 2 + static_cast<size_t>(d % 62);
      for (size_t i = 0; i < count; i++) {
        covered[i].store(0, std::memory_order_relaxed);
      }
      pool.ParallelFor(count, 1, [&](uint32_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; i++) {
          for (volatile uint32_t k = 0; k < spin; k = k + 1) {
          }
          covered[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < count; i++) {
        ASSERT_EQ(covered[i].load(), 1u) << "dispatch " << d << " index " << i;
      }
    }
  }
  EXPECT_EQ(pool.dispatches() - dispatches_at_open, static_cast<uint64_t>(kDispatches));
  EXPECT_EQ(pool.parks(), parks_at_open);
}

// Inside a bracket the dispatcher spins only for a short bound, then sleeps
// until the last item finishes. The item below finishes only after the
// dispatcher has parked, so RunTask returns through exactly one park (and the
// wake-up of a parked waiter is not lost).
TEST(WorkerPoolTest, BracketedRunTaskParksWaiterAfterBoundedSpin) {
  WorkerPool pool(2);
  WorkerPool::PauseBracket bracket(&pool);
  const uint64_t before = pool.waiter_parks();
  std::atomic<uint32_t> runs{0};
  pool.RunTask([&](uint32_t w) {
    if (w == 0) {
      while (pool.waiter_parks() == before) {
        std::this_thread::yield();
      }
    }
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 2u);
  EXPECT_EQ(pool.waiter_parks() - before, 1u);
}

// Waits (bounded) until the named gauge reaches `at_least`; returns its value.
double AwaitGauge(const std::string& name, double at_least) {
  double value = 0.0;
  for (int i = 0; i < 5000; i++) {
    for (const auto& [n, v] : MetricsRegistry::Instance().Collect().gauges) {
      if (n == name) {
        value = v;
      }
    }
    if (value >= at_least) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return value;
}

// A young pause runs several dispatches (evacuation plus the scans that do
// not fit one chunk) in one bracket, so each worker parks at most once per
// pause instead of once per dispatch. Counted through the published
// gc.pool.* gauges.
TEST(WorkerPoolTest, BracketedYoungGcParksEachWorkerAtMostOnce) {
  VmConfig cfg;
  cfg.heap_mb = 32;
  cfg.gc = GcKind::kG1;
  cfg.gc_config.num_workers = 2;
  cfg.metrics_prefix = "pool_parks_test.";
  VM vm(cfg);
  RuntimeThread* thread = vm.AttachThread();
  const double n = 2.0;
  // Every worker parks once at start-up.
  const double parks_before = AwaitGauge("pool_parks_test.gc.pool.parks", n);
  ASSERT_GE(parks_before, n);
  const double dispatches_before = AwaitGauge("pool_parks_test.gc.pool.dispatches", 0.0);
  const uint64_t pauses_before = vm.collector().metrics().PauseCount();
  while (vm.collector().metrics().PauseCount() == pauses_before) {
    ASSERT_NE(thread->AllocateDataArray(RuntimeThread::kNoSite, 8192), nullptr);
  }
  const uint64_t pauses = vm.collector().metrics().PauseCount() - pauses_before;
  // After the bracket closes every worker parks again, once.
  const double parks =
      AwaitGauge("pool_parks_test.gc.pool.parks", parks_before + n) - parks_before;
  const double dispatches =
      AwaitGauge("pool_parks_test.gc.pool.dispatches", 0.0) - dispatches_before;
  EXPECT_GE(dispatches, 2.0 * static_cast<double>(pauses));
  EXPECT_LE(parks, n * static_cast<double>(pauses));
  vm.DetachThread(thread);
}

// A worker dying inside a bracket is handled as outside one: the dispatcher's
// dead-worker poll requeues its item exactly once onto a survivor.
TEST(WorkerPoolTest, DeadWorkerInsideBracketRequeuedExactlyOnce) {
  FaultInjection::Instance().Reset();
  WorkerPool pool(3);
  WorkerPool::PauseBracket bracket(&pool);
  pool.RunTask([](uint32_t) {});  // workers are hot
  FaultInjection::Instance().ArmOnceAtHit("gc.worker.die", 1);
  std::atomic<uint32_t> runs[3] = {{0}, {0}, {0}};
  pool.RunTask([&](uint32_t w) { runs[w].fetch_add(1); });
  for (int w = 0; w < 3; w++) {
    EXPECT_EQ(runs[w].load(), 1u) << "item " << w;
  }
  EXPECT_EQ(pool.items_requeued(), 1u);
  EXPECT_EQ(pool.alive_workers(), 2u);
  pool.RunTask([&](uint32_t w) { runs[w].fetch_add(1); });  // survivors still serve
  for (int w = 0; w < 3; w++) {
    EXPECT_EQ(runs[w].load(), 2u) << "item " << w;
  }
  FaultInjection::Instance().Reset();
}

}  // namespace
}  // namespace rolp
