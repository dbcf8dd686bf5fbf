// Deterministic tests for the open-loop service harness building blocks
// (admission decisions, retry budgets and backoff, SLO window rotation and
// verdicts) plus a short real overload run: 2x-style over-capacity arrivals
// into a small VM must shed/reject load and finish without aborting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/rolp/profiler.h"
#include "src/service/admission.h"
#include "src/service/open_loop.h"
#include "src/service/sharded.h"
#include "src/service/slo_reporter.h"
#include "src/util/random.h"
#include "src/workloads/kvstore.h"

namespace rolp {
namespace {

constexpr uint64_t kMs = 1000ull * 1000;
constexpr uint64_t kSec = 1000ull * kMs;

TEST(AdmissionControllerTest, AdmitsWhenDeadlineIsMeetable) {
  AdmissionConfig cfg;
  cfg.init_service_us = 200.0;  // ewma seeds at 200us
  AdmissionController ac(cfg);
  uint64_t now = 10 * kSec;
  // Empty queue, 200ms of headroom: trivially admissible.
  EXPECT_TRUE(ac.Admit(/*queue_depth=*/0, now, now + 200 * kMs));
  // 100 queued * 200us = 20ms expected wait, deadline 200ms away: still fine.
  EXPECT_TRUE(ac.Admit(/*queue_depth=*/100, now, now + 200 * kMs));
  EXPECT_EQ(ac.admitted(), 2u);
  EXPECT_EQ(ac.rejected(), 0u);
}

TEST(AdmissionControllerTest, RejectsWhenQueueMakesDeadlineUnmeetable) {
  AdmissionConfig cfg;
  cfg.init_service_us = 200.0;
  AdmissionController ac(cfg);
  uint64_t now = 10 * kSec;
  // 2000 queued * 200us = 400ms expected wait against a 200ms deadline.
  EXPECT_FALSE(ac.Admit(/*queue_depth=*/2000, now, now + 200 * kMs));
  // A deadline already in the past is rejected even with an empty queue...
  EXPECT_FALSE(ac.Admit(/*queue_depth=*/0, now, now - 1));
  // ...but exactly-at-deadline still squeaks in (start <= deadline).
  EXPECT_TRUE(ac.Admit(/*queue_depth=*/0, now, now));
  EXPECT_EQ(ac.rejected(), 2u);
}

TEST(AdmissionControllerTest, EwmaTracksObservedServiceTime) {
  AdmissionConfig cfg;
  cfg.init_service_us = 200.0;
  AdmissionController ac(cfg);
  uint64_t seed = ac.ewma_service_ns();
  EXPECT_EQ(seed, 200u * 1000);
  // Feed consistently slower executions; the EWMA must climb toward them.
  for (int i = 0; i < 64; i++) {
    ac.ObserveService(2 * kMs);
  }
  EXPECT_GT(ac.ewma_service_ns(), kMs);
  EXPECT_LE(ac.ewma_service_ns(), 2 * kMs + seed);
  // And admission now prices the queue with the new estimate: 200 queued at
  // ~2ms each cannot make a 200ms deadline.
  uint64_t now = 10 * kSec;
  EXPECT_FALSE(ac.Admit(/*queue_depth=*/200, now, now + 200 * kMs));
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 200;
  p.jitter = 0.5;
  uint64_t rng = 42;
  for (uint32_t attempt = 1; attempt <= 8; attempt++) {
    uint64_t nominal_ms = std::min(p.base_backoff_ms << (attempt - 1), p.max_backoff_ms);
    uint64_t nominal_ns = nominal_ms * kMs;
    for (int i = 0; i < 32; i++) {
      uint64_t b = p.BackoffNs(attempt, &rng);
      // Full jitter over half the backoff: [nominal/2, nominal).
      EXPECT_GE(b, nominal_ns / 2) << "attempt " << attempt;
      EXPECT_LT(b, nominal_ns + 1) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicyTest, BackoffIsDeterministicPerRngStream) {
  RetryPolicy p;
  uint64_t rng_a = 7;
  uint64_t rng_b = 7;
  for (uint32_t attempt = 1; attempt <= 4; attempt++) {
    EXPECT_EQ(p.BackoffNs(attempt, &rng_a), p.BackoffNs(attempt, &rng_b));
  }
}

TEST(RetryBudgetTest, TokensAccrueAtRatioAndCapAtBurst) {
  RetryBudget budget(/*ratio=*/0.5, /*burst=*/3.0);
  // No traffic yet: no retries.
  EXPECT_FALSE(budget.TryAcquire());
  // Two requests deposit exactly one token.
  budget.OnRequest();
  budget.OnRequest();
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  // Heavy traffic cannot bank more than `burst` retries.
  for (int i = 0; i < 1000; i++) {
    budget.OnRequest();
  }
  int granted = 0;
  while (budget.TryAcquire()) {
    granted++;
  }
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(budget.granted(), 4u);
  EXPECT_GE(budget.denied(), 2u);
}

RequestTimeline AtTime(uint64_t id, uint64_t scheduled_ns, uint64_t respond_ns) {
  RequestTimeline t;
  t.id = id;
  t.scheduled_ns = scheduled_ns;
  t.enqueue_ns = scheduled_ns;
  t.dequeue_ns = respond_ns;
  t.execute_ns = respond_ns;
  t.respond_ns = respond_ns;
  return t;
}

TEST(SloReporterTest, WindowsRotateOutOldSamplesButAlltimeKeepsThem) {
  SloReporter rep(/*epoch_ns=*/0);
  // 100 requests responding at t=1s, each 5ms late.
  for (uint64_t i = 0; i < 100; i++) {
    rep.Record(AtTime(i, 1 * kSec, 1 * kSec + 5 * kMs), RequestOutcome::kOk);
  }
  SloReporter::Snapshot s = rep.Collect(/*now_ns=*/2 * kSec);
  EXPECT_EQ(s.win_1min.count, 100u);
  EXPECT_EQ(s.alltime.count, 100u);
  EXPECT_NEAR(s.win_1min.p50_ms, 5.0, 1.0);
  // 90 seconds later the 1-minute ring has rotated those slots out; the
  // 15-minute ring and the all-time distribution still hold them.
  s = rep.Collect(/*now_ns=*/92 * kSec);
  EXPECT_EQ(s.win_1min.count, 0u);
  EXPECT_EQ(s.win_15min.count, 100u);
  EXPECT_EQ(s.alltime.count, 100u);
}

TEST(SloReporterTest, RotationEvictsSlotBySlotNotWholesale) {
  // Golden rotation sequence for the 1-minute ring (30 slots x 2 s): samples
  // in distinct slots must rotate out one slot at a time as the clock walks
  // forward, never in bulk and never early.
  SloReporter rep(/*epoch_ns=*/0);
  // One sample at t=1s (slot 0) and one at t=5s (slot 2).
  rep.Record(AtTime(1, 1 * kSec, 1 * kSec + kMs), RequestOutcome::kOk);
  rep.Record(AtTime(2, 5 * kSec, 5 * kSec + kMs), RequestOutcome::kOk);

  // At t=59s both are inside the trailing 60s window.
  EXPECT_EQ(rep.Collect(59 * kSec).win_1min.count, 2u);
  // Slot 0 covers [0,2s): it leaves the 30-slot ring when the clock enters
  // slot 30, i.e. at t=60s. Slot 2 survives until t=64s.
  EXPECT_EQ(rep.Collect(61 * kSec).win_1min.count, 1u);
  EXPECT_EQ(rep.Collect(63 * kSec).win_1min.count, 1u);
  EXPECT_EQ(rep.Collect(65 * kSec).win_1min.count, 0u);
  // All-time is immune to rotation.
  EXPECT_EQ(rep.Collect(65 * kSec).alltime.count, 2u);
}

TEST(SloReporterTest, RotationSurvivesClockJumpFarPastTheRing) {
  // A jump many multiples of the ring span must clear every slot exactly
  // once (the reset loop is bounded by ring size) and leave the ring usable.
  SloReporter rep(0);
  rep.Record(AtTime(1, kSec, kSec + kMs), RequestOutcome::kOk);
  SloReporter::Snapshot s = rep.Collect(3600 * kSec);  // 1 hour later
  EXPECT_EQ(s.win_1min.count, 0u);
  EXPECT_EQ(s.win_15min.count, 0u);
  EXPECT_EQ(s.alltime.count, 1u);
  // The ring still records correctly after the jump.
  rep.Record(AtTime(2, 3600 * kSec, 3600 * kSec + 2 * kMs), RequestOutcome::kOk);
  s = rep.Collect(3601 * kSec);
  EXPECT_EQ(s.win_1min.count, 1u);
  EXPECT_NEAR(s.win_1min.p50_ms, 2.0, 0.5);
}

TEST(SloReporterTest, SubMillisecondLatenessGoldenValues) {
  // The ingest pipeline reports in the 1-100us regime; the ms doubles coming
  // out of Collect must not truncate to zero and must respect nearest-rank.
  SloReporter rep(0);
  // 999 samples at 10us, one at 100us: p99.9 over 1000 = rank 999 -> 10us,
  // p100 -> 100us (ceil-rank golden values; bucket bound adds <= ~4%).
  for (uint64_t i = 0; i < 999; i++) {
    rep.Record(AtTime(i, kSec, kSec + 10 * 1000), RequestOutcome::kOk);
  }
  rep.Record(AtTime(999, kSec, kSec + 100 * 1000), RequestOutcome::kOk);
  SloReporter::Snapshot s = rep.Collect(2 * kSec);
  EXPECT_EQ(s.alltime.count, 1000u);
  EXPECT_GE(s.alltime.p50_ms, 0.010);
  EXPECT_LE(s.alltime.p50_ms, 0.0105);
  EXPECT_GE(s.alltime.p999_ms, 0.010);   // rank 999 lands on the 10us mass
  EXPECT_LE(s.alltime.p999_ms, 0.0105);  // ...not on the 100us outlier
  EXPECT_NEAR(s.alltime.max_ms, 0.100, 1e-9);  // max is exact, no truncation
}

TEST(SloReporterTest, CountsOutcomesAndErrorRate) {
  SloReporter rep(0);
  rep.Record(AtTime(1, kSec, kSec + kMs), RequestOutcome::kOk);
  rep.Record(AtTime(2, kSec, kSec + kMs), RequestOutcome::kDeadlineMiss);
  rep.Record(AtTime(3, kSec, kSec + kMs), RequestOutcome::kRejected);
  rep.Record(AtTime(4, kSec, kSec + kMs), RequestOutcome::kShed);
  rep.CountRetry();
  SloReporter::Snapshot s = rep.Collect(2 * kSec);
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.deadline_miss, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_NEAR(s.error_rate, 0.5, 1e-9);
}

TEST(SloReporterTest, VerdictGatesOnLatenessThresholdsAndSurvival) {
  SloThresholds th;
  th.p50_ms = 400.0;
  th.p95_ms = 600.0;
  th.p99_ms = 800.0;
  th.p999_ms = 1500.0;
  th.max_error_rate = 0.95;
  {
    SloReporter rep(0);
    for (uint64_t i = 0; i < 100; i++) {
      rep.Record(AtTime(i, kSec, kSec + 5 * kMs), RequestOutcome::kOk);
    }
    SloReporter::Verdict v = rep.Evaluate("rolp", th, /*survived=*/true, 2 * kSec);
    EXPECT_TRUE(v.pass);
    EXPECT_NE(v.json.find("\"pass\":true"), std::string::npos);
    EXPECT_NE(v.json.find("\"collector\":\"rolp\""), std::string::npos);
    // A dead process can't pass no matter how good the numbers were.
    EXPECT_FALSE(rep.Evaluate("rolp", th, /*survived=*/false, 2 * kSec).pass);
  }
  {
    // 2.5s lateness blows the p50 threshold -> fail.
    SloReporter rep(0);
    for (uint64_t i = 0; i < 100; i++) {
      rep.Record(AtTime(i, kSec, kSec + 2500 * kMs), RequestOutcome::kOk);
    }
    SloReporter::Verdict v = rep.Evaluate("rolp", th, /*survived=*/true, 2 * kSec);
    EXPECT_FALSE(v.pass);
    EXPECT_NE(v.json.find("\"p50\":false"), std::string::npos);
  }
}

TEST(SloReporterTest, MergeFromFoldsShardSubWindowsIntoOneVerdict) {
  // The sharded harness builds all reporters from one epoch and merges them
  // at the end: counts add, and the merged distribution spans both inputs.
  SloReporter a(0);
  SloReporter b(0);
  for (uint64_t i = 0; i < 50; i++) {
    a.Record(AtTime(i, kSec, kSec + 2 * kMs), RequestOutcome::kOk);
    b.Record(AtTime(100 + i, kSec, kSec + 40 * kMs), RequestOutcome::kOk);
  }
  b.Record(AtTime(999, kSec, kSec + kMs), RequestOutcome::kShed);
  b.CountRetry();

  SloReporter merged(0);
  merged.MergeFrom(a, 2 * kSec);
  merged.MergeFrom(b, 2 * kSec);
  SloReporter::Snapshot s = merged.Collect(2 * kSec);
  EXPECT_EQ(s.total, 101u);
  EXPECT_EQ(s.ok, 100u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.alltime.count, 101u);
  EXPECT_EQ(s.win_1min.count, 101u);
  // Half the samples at 2ms, half at 40ms: the merged p50 sits between the
  // two shard medians — impossible if either shard's histogram were dropped.
  EXPECT_GT(s.alltime.p95_ms, 20.0);
  EXPECT_LT(s.alltime.p50_ms, 20.0);
}

TEST(ConsistentHashRouterTest, EveryKeyRoutesToExactlyOneValidShard) {
  ConsistentHashRouter router(4);
  std::vector<uint64_t> counts(4, 0);
  for (uint64_t key = 0; key < 20000; key++) {
    int s = router.ShardFor(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Routing is a pure function of the key: same key, same shard.
    ASSERT_EQ(router.ShardFor(key), s);
    counts[s]++;
  }
  // Near-uniform spread: no shard starves or hogs (vnodes smooth the ring).
  for (uint64_t c : counts) {
    EXPECT_GT(c, 20000u / 4 / 3) << "shard starved";
    EXPECT_LT(c, 20000u * 2 / 4) << "shard hogged";
  }
}

TEST(ConsistentHashRouterTest, ScaleOutMovesOnlyAFractionOfKeys) {
  ConsistentHashRouter four(4);
  ConsistentHashRouter five(5);
  uint64_t moved = 0;
  for (uint64_t key = 0; key < 10000; key++) {
    if (four.ShardFor(key) != five.ShardFor(key)) {
      moved++;
    }
  }
  // Consistent hashing: adding a shard remaps ~1/5 of keys, not all of them.
  EXPECT_LT(moved, 10000u / 2);
  EXPECT_GT(moved, 0u);
}

// Arrival offsets (ns after the run start) of the seeded open-loop schedule
// for `o`: two SplitMix64 draws per fresh arrival, request class then gap —
// the recipe the generator follows and perfbench's driver rebuilds.
std::vector<uint64_t> PoissonSchedule(const ServiceOptions& o) {
  std::vector<uint64_t> offsets;
  uint64_t rng = o.seed ^ 0x9e3779b97f4a7c15ULL;
  double mean_gap_ns = 1e9 / o.rate_rps;
  uint64_t end = static_cast<uint64_t>(o.duration_s * 1e9);
  for (uint64_t next = 0; next < end;) {
    offsets.push_back(next);
    (void)SplitMix64(&rng);  // request class
    double u2 = static_cast<double>(SplitMix64(&rng) >> 11) * 0x1.0p-53;
    double gap = o.poisson_arrivals ? -std::log(1.0 - u2) * mean_gap_ns : mean_gap_ns;
    next += std::max<uint64_t>(static_cast<uint64_t>(gap), 1);
  }
  return offsets;
}

TEST(ShardedServiceTest, RoutesConserveRequestsAcrossShards) {
  // One seeded schedule through the one-shard engine (RunService) and through
  // two VM shards (RunShardedService), checked by counting, not timing: both
  // offer exactly the rebuilt schedule, each shard receives exactly the ids
  // the router sends it, and every request terminates exactly once.
  VmConfig cfg;
  cfg.heap_mb = 48;
  cfg.gc = GcKind::kG1;
  KvStoreOptions kv;
  kv.num_keys = 4000;
  kv.memtable_flush_rows = 1000;
  ServiceOptions so;
  so.workers = 1;
  so.duration_s = 1.0;
  so.rate_rps = 2000.0;
  so.calibrate_s = 0.0;
  so.drain_grace_s = 0.5;
  const std::vector<uint64_t> schedule = PoissonSchedule(so);
  ASSERT_GT(schedule.size(), 500u);

  KvStoreWorkload workload(kv);
  ServiceResult single = RunService(cfg, workload, so);
  EXPECT_TRUE(single.survived);
  EXPECT_EQ(single.offered, schedule.size());
  EXPECT_EQ(single.slo.total, single.offered);

  ShardedServiceOptions opt;
  opt.shards = 2;
  opt.service = so;
  ShardedServiceResult r = RunShardedService(
      cfg, [&kv](int) { return std::make_unique<KvStoreWorkload>(kv); }, opt);

  EXPECT_TRUE(r.survived);
  EXPECT_EQ(r.offered, schedule.size());
  ASSERT_EQ(r.shards.size(), 2u);
  ConsistentHashRouter router(2);
  std::vector<uint64_t> routed(2, 0);
  for (uint64_t id = 0; id < schedule.size(); id++) {
    routed[router.ShardFor(id)]++;
  }
  uint64_t routed_sum = 0;
  for (size_t s = 0; s < r.shards.size(); s++) {
    const ServiceResult& shard = r.shards[s];
    EXPECT_GT(shard.offered, 0u) << "router starved a shard";
    EXPECT_EQ(shard.offered, routed[s]) << "shard " << s;
    // Each shard's reporter saw one terminal decision per request routed to it.
    EXPECT_EQ(shard.slo.total, shard.offered) << "shard " << s;
    routed_sum += shard.offered;
  }
  EXPECT_EQ(routed_sum, r.offered);
  // The merged reporter recorded one terminal decision per offered request.
  EXPECT_EQ(r.slo.total, r.offered);
  EXPECT_FALSE(r.verdict_json.empty());
  EXPECT_NE(r.verdict_json.find("\"shards\":2"), std::string::npos);
}

TEST(ProfilerHeapPressureTest, DegradesUnderPressureAndReArmsOnlyAfterItClears) {
  // The governor's kDegrade rung: OnHeapPressure(true) suspends the profiler
  // immediately; re-arm goes through the normal quiet-cycle machinery and is
  // blocked for as long as the pressure flag stays up.
  RolpConfig cfg;
  cfg.old_table_entries = 4096;
  cfg.inference_period = 4;
  cfg.rearm_clean_cycles = 2;
  Profiler p(cfg);
  EXPECT_FALSE(p.degraded());
  p.OnHeapPressure(true);
  EXPECT_TRUE(p.degraded());
  // Arbitrarily many otherwise-quiet cycles cannot re-arm under pressure.
  uint64_t cycle = 1;
  for (int i = 0; i < 10; i++) {
    p.OnGcEnd({cycle++, 1000, PauseKind::kYoung});
  }
  EXPECT_TRUE(p.degraded());
  // Pressure clears: still degraded until the quiet-cycle count is met...
  p.OnHeapPressure(false);
  EXPECT_TRUE(p.degraded());
  p.OnGcEnd({cycle++, 1000, PauseKind::kYoung});
  EXPECT_TRUE(p.degraded());
  // ...then the configured clean cycles re-arm it.
  p.OnGcEnd({cycle++, 1000, PauseKind::kYoung});
  EXPECT_FALSE(p.degraded());
  // And renewed pressure degrades again — the cycle is repeatable.
  p.OnHeapPressure(true);
  EXPECT_TRUE(p.degraded());
}

TEST(OpenLoopServiceTest, OverloadRunShedsWithoutAborting) {
  // Arrivals far beyond what one worker can execute on a small heap: the
  // harness must reject/shed the excess, keep every counter consistent, and
  // reach the end alive. This is the unit-sized version of the CI soak. The
  // overload is sized from the capacity the same run measures (4x a
  // closed-loop probe), so it overloads a fast box and a slow one alike.
  VmConfig cfg;
  cfg.heap_mb = 48;
  cfg.gc = GcKind::kRolp;
  KvStoreOptions kv;
  kv.num_keys = 8000;
  kv.memtable_flush_rows = 1000;
  KvStoreWorkload workload(kv);
  ServiceOptions opt;
  opt.workers = 1;
  opt.duration_s = 1.5;
  opt.rate_rps = 0.0;  // calibrate, then offer overload_factor x capacity
  opt.calibrate_s = 0.3;
  opt.overload_factor = 4.0;
  opt.drain_grace_s = 0.3;
  opt.admission.queue_capacity = 128;
  opt.admission.deadline_ms = 50;
  ServiceResult r = RunService(cfg, workload, opt);

  EXPECT_TRUE(r.survived);
  EXPECT_GT(r.offered, 10000u);
  EXPECT_GT(r.completed_ok, 0u);
  // Overload must be refused somewhere: admission, queue, or deadline sheds.
  EXPECT_GT(r.rejected + r.shed_queue_full + r.shed_deadline, 0u);
  // Every offered request terminates exactly once.
  EXPECT_EQ(r.offered, r.completed_ok + r.deadline_miss + r.rejected +
                           r.shed_queue_full + r.shed_deadline + r.shed_drain);
  // The reporter saw the same totals the counters did.
  EXPECT_EQ(r.slo.total, r.offered);
  EXPECT_GT(r.slo.alltime.count, 0u);
  EXPECT_FALSE(r.verdict_json.empty());
}

TEST(OpenLoopServiceTest, IdleWorkersWakeOnArrivalNotOnTimer) {
  // Light load leaves both workers idle between arrivals. Checked by
  // counting: every arrival is served before the drain (a lost wakeup on the
  // last one would leave it queued until the drain sheds it), and the idle
  // workers block about once per arrival instead of re-polling on a timer.
  // One push can end the waits of both workers while only one finds the
  // request, and the shutdown wake ends each worker's last wait: hence
  // 2 x offered + workers.
  VmConfig cfg;
  cfg.heap_mb = 48;
  cfg.gc = GcKind::kG1;
  KvStoreOptions kv;
  kv.num_keys = 4000;
  kv.memtable_flush_rows = 1000;
  KvStoreWorkload workload(kv);
  ServiceOptions so;
  so.workers = 2;
  so.duration_s = 1.0;
  so.rate_rps = 200.0;
  so.calibrate_s = 0.0;
  so.drain_grace_s = 0.5;
  ServiceResult r = RunService(cfg, workload, so);

  EXPECT_TRUE(r.survived);
  EXPECT_GT(r.offered, 100u);
  EXPECT_EQ(r.shed_drain, 0u);
  EXPECT_EQ(r.completed_ok + r.deadline_miss, r.offered);
  EXPECT_GT(r.idle_waits, 0u);
  EXPECT_LE(r.idle_waits, 2 * r.offered + static_cast<uint64_t>(so.workers));
}

}  // namespace
}  // namespace rolp
