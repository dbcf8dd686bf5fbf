#include "src/gc/stealable_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace rolp {
namespace {

TEST(StealableQueueTest, OwnerPushPopIsLifo) {
  StealableTaskQueue<int> q;
  for (int i = 0; i < 10; i++) {
    q.Push(i);
  }
  int v = -1;
  for (int i = 9; i >= 0; i--) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_TRUE(q.Empty());
}

TEST(StealableQueueTest, StealTakesOldestFirst) {
  StealableTaskQueue<int> q;
  for (int i = 0; i < 10; i++) {
    q.Push(i);
  }
  int v = -1;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(q.Steal(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Steal(&v));
}

TEST(StealableQueueTest, EmptyQueueYieldsNothing) {
  StealableTaskQueue<int> q;
  int v = 0;
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_FALSE(q.Steal(&v));
  EXPECT_TRUE(q.Empty());
}

TEST(StealableQueueTest, GrowthPreservesPendingItems) {
  StealableTaskQueue<int> q(/*initial_capacity=*/8);
  size_t cap0 = q.capacity();
  constexpr int kItems = 1000;
  for (int i = 0; i < kItems; i++) {
    q.Push(i);
  }
  EXPECT_GT(q.capacity(), cap0);
  std::vector<bool> seen(kItems, false);
  int v = -1;
  for (int i = 0; i < kItems; i++) {
    ASSERT_TRUE(q.Pop(&v));
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kItems);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_FALSE(q.Pop(&v));
}

// The last-element race: when one item remains, the owner's Pop and a thief's
// Steal CAS for it — exactly one side may win, never both, never neither.
TEST(StealableQueueTest, LastElementGoesToExactlyOneSide) {
  constexpr int kRounds = 300;
  StealableTaskQueue<int> q;
  for (int round = 0; round < kRounds; round++) {
    q.Push(round);
    std::atomic<int> thief_got{0};
    std::thread thief([&] {
      int v = -1;
      if (q.Steal(&v)) {
        EXPECT_EQ(v, round);
        thief_got.store(1, std::memory_order_relaxed);
      }
    });
    int v = -1;
    int owner_got = q.Pop(&v) ? 1 : 0;
    if (owner_got) {
      EXPECT_EQ(v, round);
    }
    thief.join();
    EXPECT_EQ(owner_got + thief_got.load(std::memory_order_relaxed), 1);
    EXPECT_TRUE(q.Empty());
  }
}

// Owner pushes and pops concurrently with two thieves; every pushed item must
// be claimed exactly once across the three threads.
TEST(StealableQueueTest, ConcurrentStealersClaimEachItemOnce) {
  constexpr int kItems = 20000;
  StealableTaskQueue<int> q(/*initial_capacity=*/64);  // force growth under load
  std::vector<std::atomic<int>> claims(kItems);
  std::atomic<bool> done_pushing{false};

  auto claim = [&](int v) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kItems);
    claims[v].fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < 2; t++) {
    thieves.emplace_back([&] {
      int v = -1;
      while (!done_pushing.load(std::memory_order_acquire) || !q.Empty()) {
        if (q.Steal(&v)) {
          claim(v);
        }
      }
    });
  }
  // Owner interleaves pushes with occasional pops (the GC drain does both).
  int v = -1;
  for (int i = 0; i < kItems; i++) {
    q.Push(i);
    if (i % 7 == 0 && q.Pop(&v)) {
      claim(v);
    }
  }
  done_pushing.store(true, std::memory_order_release);
  while (q.Pop(&v)) {
    claim(v);
  }
  for (auto& th : thieves) {
    th.join();
  }
  for (int i = 0; i < kItems; i++) {
    EXPECT_EQ(claims[i].load(std::memory_order_relaxed), 1) << "item " << i;
  }
}

// Termination protocol: outstanding hits zero only when every item — including
// ones published by other workers mid-drain — has been processed. Each seed of
// value d expands into a binary tree of depth d pushed onto the claiming
// worker's own deque, so work migrates between queues while others drain.
TEST(WorkStealingPoolTest, TerminationCountsInFlightExpansion) {
  constexpr uint32_t kWorkers = 3;
  constexpr int kSeedsPerWorker = 50;
  constexpr int kDepth = 4;
  // Nodes per seed tree: 2^(kDepth+1) - 1.
  constexpr int kExpected = kWorkers * kSeedsPerWorker * ((1 << (kDepth + 1)) - 1);

  WorkStealingPool<int> pool(kWorkers);
  std::atomic<int> processed{0};

  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWorkers; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kSeedsPerWorker; i++) {
        pool.Push(w, kDepth);
      }
      int v = -1;
      for (;;) {
        if (pool.TryGet(w, &v)) {
          processed.fetch_add(1, std::memory_order_relaxed);
          if (v > 0) {
            pool.Push(w, v - 1);
            pool.Push(w, v - 1);
          }
          pool.FinishOne(w);
        } else if (pool.Done()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(processed.load(std::memory_order_relaxed), kExpected);
  EXPECT_TRUE(pool.Done());
}

// AddOutstanding models scan units finished outside the deques (cursor-claimed
// root chunks): Done() must stay false until those are finished too.
TEST(WorkStealingPoolTest, ExternalUnitsBlockTermination) {
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(3);
  EXPECT_FALSE(pool.Done());
  pool.Push(0, 42);
  pool.FinishOne(0);  // one external unit
  pool.FinishOne(0);  // second external unit
  int v = -1;
  EXPECT_TRUE(pool.TryGet(1, &v));  // worker 1 steals worker 0's item
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(pool.TryGet(0, &v));  // worker 0 goes idle: flushes its credit
  EXPECT_FALSE(pool.Done());
  pool.FinishOne(1);  // the queued item
  EXPECT_FALSE(pool.TryGet(1, &v));
  EXPECT_FALSE(pool.Done());
  pool.FinishOne(0);  // last external unit
  EXPECT_FALSE(pool.TryGet(0, &v));
  EXPECT_TRUE(pool.Done());
}

// Finished units are held back as per-worker credit and reach the shared
// counter in one batch of kCreditBatch, without any TryGet.
TEST(WorkStealingPoolTest, CreditFlushesAtBatchSize) {
  constexpr int64_t kBatch = WorkStealingPool<int>::kCreditBatch;
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(kBatch);
  for (int64_t i = 0; i < kBatch - 1; i++) {
    pool.FinishOne(1);
  }
  EXPECT_FALSE(pool.Done());
  pool.FinishOne(1);
  EXPECT_TRUE(pool.Done());
}

// Push spends the pushing worker's credit before it touches the shared
// counter: a worker that finishes one item and pushes one leaves the counter
// where it was, and the counter still covers the pushed item.
TEST(WorkStealingPoolTest, PushSpendsCreditBeforeCounter) {
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(1);
  pool.FinishOne(0);    // credit 1, counter 1
  pool.Push(0, 7);      // spends the credit: counter still 1, true work 1
  int v = -1;
  EXPECT_TRUE(pool.TryGet(1, &v));
  EXPECT_FALSE(pool.TryGet(0, &v));  // worker 0 has nothing left to flush
  EXPECT_FALSE(pool.Done());         // the stolen item is still in flight
  pool.FinishOne(1);
  EXPECT_FALSE(pool.TryGet(1, &v));
  EXPECT_TRUE(pool.Done());
}

// A worker that pushes without credit must count the item in the shared
// counter: a thief that finishes and flushes the stolen item must not drain
// the counter while the pusher's own scan unit is still open.
TEST(WorkStealingPoolTest, PushesBeyondCreditReachTheCounter) {
  WorkStealingPool<int> pool(2);
  pool.AddOutstanding(1);  // one scan unit, claimed by worker 0
  pool.Push(0, 1);         // worker 0 publishes an item mid-unit
  int v = -1;
  ASSERT_TRUE(pool.TryGet(1, &v));  // worker 1 steals it,
  pool.FinishOne(1);                // finishes it,
  EXPECT_FALSE(pool.TryGet(1, &v));  // and goes idle: flushes
  EXPECT_FALSE(pool.Done());         // worker 0's unit is still open
  pool.FinishOne(0);
  EXPECT_FALSE(pool.TryGet(0, &v));
  EXPECT_TRUE(pool.Done());
}

// Fan-out tree on 4 workers: node i spawns nodes 2i+1 and 2i+2 while they
// exist, so work migrates between queues while others drain. Every node is
// processed exactly once, and no worker observes Done() before the last node
// finished.
TEST(WorkStealingPoolTest, FanOutTreeTerminatesOnlyAfterLastItem) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kNodes = 20000;
  WorkStealingPool<int> pool(kWorkers);
  std::vector<std::atomic<int>> claims(kNodes);
  std::atomic<int> finished{0};
  std::atomic<int> early_done{0};
  pool.Push(0, 0);  // the root, published before any worker starts
  EXPECT_FALSE(pool.Done());

  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWorkers; w++) {
    threads.emplace_back([&, w] {
      int v = -1;
      for (;;) {
        if (pool.TryGet(w, &v)) {
          claims[v].fetch_add(1, std::memory_order_relaxed);
          for (int child = 2 * v + 1; child <= 2 * v + 2 && child < kNodes; child++) {
            pool.Push(w, child);
          }
          finished.fetch_add(1, std::memory_order_relaxed);
          pool.FinishOne(w);
        } else if (pool.Done()) {
          if (finished.load(std::memory_order_relaxed) != kNodes) {
            early_done.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(early_done.load(), 0);
  EXPECT_EQ(finished.load(), kNodes);
  for (int i = 0; i < kNodes; i++) {
    ASSERT_EQ(claims[i].load(std::memory_order_relaxed), 1) << "node " << i;
  }
  EXPECT_TRUE(pool.Done());
}

// One worker finishes work but holds the credit unflushed (it never went
// idle) while the other three find every queue empty: none of them may
// terminate until that worker flushes.
TEST(WorkStealingPoolTest, UnflushedCreditHoldsOffTermination) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kItems = 10;  // below kCreditBatch: no automatic flush
  static_assert(kItems < WorkStealingPool<int>::kCreditBatch);
  constexpr int kPollsEach = 2000;
  WorkStealingPool<int> pool(kWorkers);
  // Worker 0 (this thread) runs its items and keeps the credit.
  for (int i = 0; i < kItems; i++) {
    pool.Push(0, i);
  }
  int v = -1;
  for (int i = 0; i < kItems; i++) {
    ASSERT_TRUE(pool.TryGet(0, &v));
    pool.FinishOne(0);
  }

  std::atomic<int> idle_polls[kWorkers] = {};
  std::atomic<int> terminated{0};
  std::vector<std::thread> idlers;
  for (uint32_t w = 1; w < kWorkers; w++) {
    idlers.emplace_back([&, w] {
      int item = -1;
      for (;;) {
        EXPECT_FALSE(pool.TryGet(w, &item));
        if (pool.Done()) {
          terminated.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        idle_polls[w].fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }
  // Let every idle worker poll an empty pool many times.
  for (uint32_t w = 1; w < kWorkers; w++) {
    while (idle_polls[w].load(std::memory_order_relaxed) < kPollsEach &&
           terminated.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(terminated.load(), 0);
  EXPECT_FALSE(pool.Done());

  EXPECT_FALSE(pool.TryGet(0, &v));  // worker 0 goes idle: flushes
  EXPECT_TRUE(pool.Done());
  for (auto& th : idlers) {
    th.join();
  }
  EXPECT_EQ(terminated.load(), static_cast<int>(kWorkers) - 1);
}

}  // namespace
}  // namespace rolp
