#include "src/gc/thread_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace rolp {
namespace {

TEST(SafepointTest, SingleThreadOperationCompletes) {
  SafepointManager sp;
  MutatorContext ctx;
  sp.RegisterThread(&ctx);
  EXPECT_TRUE(sp.BeginOperation(&ctx));
  sp.EndOperation(&ctx);
  sp.UnregisterThread(&ctx);
  EXPECT_EQ(sp.OperationCount(), 1u);
}

TEST(SafepointTest, StopsAllMutators) {
  SafepointManager sp;
  MutatorContext main_ctx;
  sp.RegisterThread(&main_ctx);

  constexpr int kThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> registered{0};
  std::atomic<uint64_t> iterations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      MutatorContext ctx;
      sp.RegisterThread(&ctx);
      registered.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        iterations.fetch_add(1, std::memory_order_relaxed);
        sp.Poll(&ctx);
      }
      sp.UnregisterThread(&ctx);
    });
  }
  // All mutators must be registered before the stop protocol can make the
  // "world stopped" guarantee the assertions below rely on.
  while (registered.load() < kThreads) {
    std::this_thread::yield();
  }

  // Run several VM operations; during each, verify the world stays stopped
  // (iteration counter must not advance while we hold the operation).
  for (int op = 0; op < 5; op++) {
    ASSERT_TRUE(sp.BeginOperation(&main_ctx));
    uint64_t before = iterations.load();
    for (volatile int i = 0; i < 200000; i++) {
    }
    uint64_t after = iterations.load();
    EXPECT_EQ(before, after) << "mutators advanced during a stop-the-world window";
    sp.EndOperation(&main_ctx);
  }

  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  sp.UnregisterThread(&main_ctx);
}

TEST(SafepointTest, ConcurrentBeginOnlyOneWins) {
  SafepointManager sp;
  constexpr int kThreads = 4;
  std::atomic<int> wins{0};
  std::atomic<int> losses{0};
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      MutatorContext ctx;
      sp.RegisterThread(&ctx);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      if (sp.BeginOperation(&ctx)) {
        wins.fetch_add(1);
        sp.EndOperation(&ctx);
      } else {
        losses.fetch_add(1);
      }
      sp.UnregisterThread(&ctx);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GE(wins.load(), 1);
  EXPECT_EQ(wins.load() + losses.load(), kThreads);
}

TEST(SafepointTest, RecordsOneTtspSamplePerOperation) {
  // Every thread polls and also races to begin operations; each operation
  // that wins records one time-to-safepoint sample, and a lost race none.
  SafepointManager sp;
  constexpr int kThreads = 3;
  constexpr int kAttempts = 50;
  std::atomic<int> wins{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      MutatorContext ctx;
      sp.RegisterThread(&ctx);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kAttempts; i++) {
        if (sp.BeginOperation(&ctx)) {
          wins.fetch_add(1);
          sp.EndOperation(&ctx);
        }
        sp.Poll(&ctx);
      }
      sp.UnregisterThread(&ctx);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(sp.OperationCount(), static_cast<uint64_t>(wins.load()));
  EXPECT_GE(sp.OperationCount(), static_cast<uint64_t>(kAttempts));
  EXPECT_EQ(sp.TtspHistogramSnapshot().Count(), sp.OperationCount());
}

TEST(SafepointTest, ScopedSafeRegionAllowsOperation) {
  SafepointManager sp;
  MutatorContext main_ctx;
  sp.RegisterThread(&main_ctx);

  std::atomic<bool> in_region{false};
  std::atomic<bool> release{false};
  std::thread blocked([&] {
    MutatorContext ctx;
    sp.RegisterThread(&ctx);
    {
      SafepointManager::ScopedSafeRegion safe(&sp, &ctx);
      in_region.store(true);
      while (!release.load()) {
        std::this_thread::yield();
      }
    }
    sp.UnregisterThread(&ctx);
  });

  while (!in_region.load()) {
    std::this_thread::yield();
  }
  // The blocked thread never polls, but the operation must still proceed
  // because it is inside a safe region.
  EXPECT_TRUE(sp.BeginOperation(&main_ctx));
  sp.EndOperation(&main_ctx);
  release.store(true);
  blocked.join();
  sp.UnregisterThread(&main_ctx);
}

TEST(SafepointTest, RegistrationWaitsForRunningOperation) {
  // A thread that registers while an operation runs was not counted when the
  // operation stopped the world, so it must not join (and allocate into the
  // regions being collected) until EndOperation. Checked by counting yields,
  // not by timing: the registering thread gets many chances to return early.
  SafepointManager sp;
  MutatorContext main_ctx;
  sp.RegisterThread(&main_ctx);
  ASSERT_TRUE(sp.BeginOperation(&main_ctx));

  std::atomic<bool> started{false};
  std::atomic<bool> returned{false};
  std::thread late([&] {
    MutatorContext ctx;
    started.store(true);
    sp.RegisterThread(&ctx);
    returned.store(true);
    sp.UnregisterThread(&ctx);
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 100000 && !returned.load(); i++) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(returned.load()) << "a thread registered inside a running operation";
  EXPECT_EQ(sp.NumThreads(), 1u);

  sp.EndOperation(&main_ctx);
  late.join();
  EXPECT_TRUE(returned.load());
  sp.UnregisterThread(&main_ctx);
}

TEST(SafepointTest, ThreadExitDuringStopRequest) {
  SafepointManager sp;
  MutatorContext main_ctx;
  sp.RegisterThread(&main_ctx);

  std::atomic<bool> registered{false};
  std::thread t([&] {
    MutatorContext ctx;
    sp.RegisterThread(&ctx);
    registered.store(true);
    // Exit immediately: unregistration must unblock a pending BeginOperation.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sp.UnregisterThread(&ctx);
  });
  while (!registered.load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(sp.BeginOperation(&main_ctx));
  sp.EndOperation(&main_ctx);
  t.join();
  sp.UnregisterThread(&main_ctx);
}

}  // namespace
}  // namespace rolp
