// Allocation fast lane (DESIGN.md §9): in-row pretenuring decisions, the
// per-thread sample buffer, and their reconciliation at safepoints.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "src/heap/object.h"
#include "src/rolp/alloc_buffer.h"
#include "src/rolp/old_table.h"
#include "src/rolp/profiler.h"
#include "src/runtime/thread.h"
#include "src/runtime/vm.h"

namespace rolp {
namespace {

// --- In-row decisions (OldTable) -------------------------------------------

TEST(AllocFastLaneTest, SingleProbeReturnsPublishedDecision) {
  OldTable table(1024);
  uint32_t ctx = markword::MakeContext(7, 3);
  // Before any decision: the probe records and returns young.
  EXPECT_EQ(table.RecordAllocationAndGen(ctx), 0);
  table.SetDecision(ctx, 5);
  EXPECT_EQ(table.RecordAllocationAndGen(ctx), 5);
  EXPECT_EQ(table.Row(ctx)[0], 2u);  // both probes counted
  table.ClearDecisions();
  EXPECT_EQ(table.RecordAllocationAndGen(ctx), 0);
}

TEST(AllocFastLaneTest, SetDecisionInsertsRowIfAbsent) {
  OldTable table(1024);
  uint32_t ctx = markword::MakeContext(9, 0);
  table.SetDecision(ctx, 3);
  EXPECT_TRUE(table.Contains(ctx));
  EXPECT_EQ(table.DecisionFor(ctx), 3u);
  EXPECT_EQ(table.RecordAllocationAndGen(ctx), 3);
}

TEST(AllocFastLaneTest, DecisionsAndCountsSurviveGrowForConflict) {
  OldTable table(256);
  std::vector<uint32_t> ctxs;
  for (uint32_t i = 1; i <= 100; i++) {
    uint32_t ctx = markword::MakeContext(static_cast<uint16_t>(i), 0);
    table.RecordAllocation(ctx);
    table.SetDecision(ctx, static_cast<uint8_t>(i % 15));
    ctxs.push_back(ctx);
  }
  size_t before = table.capacity();
  table.GrowForConflict();
  ASSERT_GT(table.capacity(), before);
  for (uint32_t i = 1; i <= 100; i++) {
    uint32_t ctx = ctxs[i - 1];
    EXPECT_EQ(table.Row(ctx)[0], 1u) << i;
    EXPECT_EQ(table.DecisionFor(ctx), i % 15) << i;
  }
}

// --- Per-thread sample buffer ----------------------------------------------

TEST(AllocFastLaneTest, BufferHitsAreThreadLocalUntilFlush) {
  OldTable table(1024);
  AllocBuffer buffer;
  buffer.Init(64);
  uint32_t ctx = markword::MakeContext(11, 1);
  table.SetDecision(ctx, 4);
  // First Record misses: probes the table (one count) and caches gen=4.
  EXPECT_EQ(buffer.Record(table, ctx), 4u);
  EXPECT_EQ(buffer.misses(), 1u);
  // Next 10 are pure hits: no table traffic.
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(buffer.Record(table, ctx), 4u);
  }
  EXPECT_EQ(buffer.hits(), 10u);
  EXPECT_EQ(table.Row(ctx)[0], 1u);  // only the miss reached the table
  buffer.Flush(table);
  EXPECT_EQ(table.Row(ctx)[0], 11u);  // batched delta drained exactly
  EXPECT_EQ(buffer.flushes(), 1u);
}

TEST(AllocFastLaneTest, CollisionEvictsBatchedDelta) {
  OldTable table(1024);
  AllocBuffer buffer;
  buffer.Init(1);  // one slot: every context change evicts
  uint32_t a = markword::MakeContext(1, 0);
  uint32_t b = markword::MakeContext(2, 0);
  buffer.Record(table, a);
  buffer.Record(table, a);  // pending=1 for a
  buffer.Record(table, b);  // evicts a's delta, installs b
  EXPECT_EQ(buffer.evictions(), 1u);
  EXPECT_EQ(table.Row(a)[0], 2u);  // 1 from miss probe + 1 evicted
  EXPECT_EQ(table.Row(b)[0], 1u);
}

TEST(AllocFastLaneTest, FlushInvalidatesCachedDecisions) {
  OldTable table(1024);
  AllocBuffer buffer;
  buffer.Init(64);
  uint32_t ctx = markword::MakeContext(13, 0);
  EXPECT_EQ(buffer.Record(table, ctx), 0u);  // caches gen=0
  // A safepoint publishes a new decision...
  table.SetDecision(ctx, 7);
  // ...but the buffer still serves the stale cached byte until flushed —
  // exactly the coherence window the GC-end flush closes.
  EXPECT_EQ(buffer.Record(table, ctx), 0u);
  buffer.Flush(table);
  EXPECT_EQ(buffer.Record(table, ctx), 7u);
}

TEST(AllocFastLaneTest, DroppedSampleLeavesSlotEmpty) {
  OldTable table(1024);
  AllocBuffer buffer;
  buffer.Init(64);
  EXPECT_EQ(buffer.Record(table, OldTable::kInvalidContext), 0u);
  EXPECT_EQ(table.rejected_contexts(), 1u);
  // The slot was not installed: a valid context mapping there still misses
  // cleanly (no aliasing with the rejected one).
  EXPECT_EQ(buffer.hits(), 0u);
}

TEST(AllocFastLaneTest, DisabledBufferFallsBackToDirectProbe) {
  RolpConfig cfg;
  cfg.old_table_entries = 1024;
  cfg.alloc_buffer_slots = 0;
  Profiler p(cfg);
  AllocBuffer buffer;
  buffer.Init(0);
  EXPECT_FALSE(buffer.enabled());
  uint32_t ctx = markword::MakeContext(3, 0);
  p.old_table().SetDecision(ctx, 6);
  EXPECT_EQ(p.RecordAllocationWithGen(ctx, &buffer), 6u);
  EXPECT_EQ(p.RecordAllocationWithGen(ctx, nullptr), 6u);
  EXPECT_EQ(p.old_table().Row(ctx)[0], 2u);
}

// --- Profiler integration ---------------------------------------------------

uint64_t MarkFor(uint32_t context, uint32_t age) {
  return markword::SetAge(markword::SetContext(0, context), age);
}

RolpConfig SmallConfig() {
  RolpConfig cfg;
  cfg.old_table_entries = 4096;
  cfg.inference_period = 4;
  return cfg;
}

// Builds a survivor triangle peaking at age 3 and runs one inference.
void DriveInference(Profiler& p, uint32_t ctx) {
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx);
  }
  for (uint32_t age = 0; age < 3; age++) {
    for (int i = 0; i < 1000; i++) {
      p.OnSurvivor(0, MarkFor(ctx, age));
    }
    p.OnGcEnd({age + 1, 1000, PauseKind::kYoung});
  }
  p.OnGcEnd({4, 1000, PauseKind::kYoung});
}

TEST(AllocFastLaneTest, FastLaneAgreesWithTargetGen) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(20, 0);
  DriveInference(p, ctx);
  ASSERT_EQ(p.inferences_run(), 1u);
  uint8_t truth = p.TargetGen(ctx);
  ASSERT_GT(truth, 0u);
  // Direct probe and buffered probe both serve the in-row copy of the
  // decision the inference published.
  EXPECT_EQ(p.RecordAllocationWithGen(ctx, nullptr), truth);
  AllocBuffer buffer;
  buffer.Init(64);
  EXPECT_EQ(p.RecordAllocationWithGen(ctx, &buffer), truth);  // miss path
  EXPECT_EQ(p.RecordAllocationWithGen(ctx, &buffer), truth);  // hit path
}

TEST(AllocFastLaneTest, RetiredDecisionMapsAreReclaimedAtSafepoints) {
  Profiler p(SmallConfig());
  uint32_t ctx = markword::MakeContext(21, 0);
  uint64_t cycle = 0;
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 1000; i++) {
      p.RecordAllocation(ctx);
    }
    for (uint32_t age = 0; age < 3; age++) {
      for (int i = 0; i < 1000; i++) {
        p.OnSurvivor(0, MarkFor(ctx, age));
      }
      p.OnGcEnd({++cycle, 1000, PauseKind::kYoung});
    }
    p.OnGcEnd({++cycle, 1000, PauseKind::kYoung});
    // Each publication retires exactly one map; the next safepoint reclaims
    // it. Bounded — this replaces the grow-forever decision history.
    EXPECT_LE(p.retired_decision_maps(), 1u) << "round " << round;
  }
  EXPECT_GE(p.inferences_run(), 5u);
  p.OnGcEnd({++cycle, 1000, PauseKind::kYoung});
  EXPECT_LE(p.retired_decision_maps(), 1u);
}

// --- Multithreaded stress ----------------------------------------------------

TEST(AllocFastLaneTest, ConcurrentBufferedStressReconcilesAtSafepoint) {
  OldTable table(1u << 14);
  constexpr int kWriters = 4;
  constexpr int kPerThread = 40000;
  constexpr int kContexts = 64;
  std::atomic<bool> stop{false};
  // Completed reader passes. Each writer holds its final flush until the
  // reader has finished a whole pass that began after the writer's earlier
  // flushes, so at least one probe made while the writers run finds published
  // rows, however late the reader is first scheduled.
  std::atomic<uint64_t> reader_passes{0};

  // Writers: buffered recording over a shared context set, with periodic
  // voluntary flushes (thread detach / allocation-failure paths do this).
  std::vector<std::thread> writers;
  std::array<AllocBuffer, kWriters> buffers;
  for (int t = 0; t < kWriters; t++) {
    buffers[t].Init(32);  // smaller than the context set: constant eviction
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        uint32_t ctx = markword::MakeContext(
            static_cast<uint16_t>(1 + (i * (t + 1)) % kContexts), 0);
        buffers[t].Record(table, ctx);
        if (i == kPerThread - 1) {
          const uint64_t passes = reader_passes.load(std::memory_order_acquire);
          while (reader_passes.load(std::memory_order_acquire) < passes + 2) {
            std::this_thread::yield();
          }
        }
        if (i % 10000 == 9999) {
          buffers[t].Flush(table);
        }
      }
    });
  }
  // Reader: concurrent Contains / decision probes (GC workers do this via
  // Contains during survivor filtering).
  std::thread reader([&] {
    uint64_t seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t c = 1; c <= kContexts; c++) {
        uint32_t ctx = markword::MakeContext(static_cast<uint16_t>(c), 0);
        if (table.Contains(ctx)) {
          seen += table.DecisionFor(ctx) + 1;
        }
      }
      reader_passes.fetch_add(1, std::memory_order_release);
    }
    EXPECT_GT(seen, 0u);
  });

  for (auto& th : writers) {
    th.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Simulated safepoint: drain every buffer, then tally the table.
  uint64_t total = 0;
  uint64_t misses = 0;
  for (auto& b : buffers) {
    b.Flush(table);
    misses += b.misses();
  }
  for (uint32_t c = 1; c <= kContexts; c++) {
    total += table.Row(markword::MakeContext(static_cast<uint16_t>(c), 0))[0];
  }
  EXPECT_EQ(table.dropped_samples(), 0u);
  EXPECT_EQ(table.rejected_contexts(), 0u);
  // Every recorded allocation is either a buffered hit / eviction / flush
  // (all drained through a real RMW, never lost) or a miss probe, which uses
  // the paper's racy increment and may lose counts under contention. So the
  // reconciled total is bounded exactly by the miss count.
  uint64_t expected = static_cast<uint64_t>(kWriters) * kPerThread;
  EXPECT_LE(total, expected);
  EXPECT_GE(total, expected - misses);
}

// With buffers large enough to hold the whole working set, reconciliation is
// exact: every count flows through the RMW flush path.
TEST(AllocFastLaneTest, ConcurrentFullyBufferedStressIsExact) {
  OldTable table(1u << 14);
  constexpr int kWriters = 4;
  constexpr int kPerThread = 40000;
  constexpr int kContexts = 64;
  std::vector<std::thread> writers;
  std::array<AllocBuffer, kWriters> buffers;
  std::array<std::atomic<uint64_t>, kWriters> missed{};
  for (int t = 0; t < kWriters; t++) {
    buffers[t].Init(kContexts * 4);  // no capacity evictions
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        uint32_t ctx = markword::MakeContext(
            static_cast<uint16_t>(1 + (i * (t + 1)) % kContexts), 0);
        buffers[t].Record(table, ctx);
      }
      missed[t].store(buffers[t].misses(), std::memory_order_relaxed);
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  uint64_t misses = 0;
  for (int t = 0; t < kWriters; t++) {
    buffers[t].Flush(table);
    misses += missed[t].load(std::memory_order_relaxed);
  }
  uint64_t total = 0;
  for (uint32_t c = 1; c <= kContexts; c++) {
    total += table.Row(markword::MakeContext(static_cast<uint16_t>(c), 0))[0];
  }
  uint64_t expected = static_cast<uint64_t>(kWriters) * kPerThread;
  // Only the handful of cold-miss probes (at most kContexts per direct-mapped
  // buffer, modulo hash collisions) used the racy increment; everything else
  // flowed through RMW flushes.
  EXPECT_LE(total, expected);
  EXPECT_GE(total, expected - misses);
}

// --- VM-level: batched allocated-bytes accounting ---------------------------

TEST(AllocFastLaneTest, AllocatedBytesExactAfterDetach) {
  VmConfig cfg;
  cfg.heap_mb = 32;
  cfg.gc = GcKind::kRolp;
  cfg.rolp.old_table_entries = 4096;
  VM vm(cfg);
  ClassId cls = vm.heap().classes().RegisterInstance("Node", 24, {0});
  size_t per_alloc = vm.heap().InstanceAllocSize(cls);
  RuntimeThread* t = vm.AttachThread();
  uint64_t before = vm.heap().total_allocated_bytes();
  constexpr int kAllocs = 500;
  for (int i = 0; i < kAllocs; i++) {
    ASSERT_NE(t->AllocateInstance(RuntimeThread::kNoSite, cls), nullptr);
  }
  vm.DetachThread(t);  // drains the thread's batched byte credit
  EXPECT_EQ(vm.heap().total_allocated_bytes(), before + kAllocs * per_alloc);
}

}  // namespace
}  // namespace rolp
