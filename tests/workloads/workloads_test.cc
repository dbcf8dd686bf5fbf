#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/workloads/dacapo.h"
#include "src/workloads/driver.h"
#include "src/workloads/graph.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/textindex.h"

namespace rolp {
namespace {

VmConfig TestVm(GcKind gc, size_t heap_mb = 64) {
  VmConfig cfg;
  cfg.heap_mb = heap_mb;
  cfg.gc = gc;
  cfg.jit.hot_threshold = 200;
  cfg.rolp.inference_period = 8;
  cfg.rolp.old_table_entries = 1 << 14;
  return cfg;
}

DriverOptions ShortRun(double seconds = 0.4) {
  DriverOptions opt;
  opt.threads = 1;
  opt.duration_s = seconds;
  return opt;
}

TEST(KvStoreWorkloadTest, RunsUnderEveryCollector) {
  for (GcKind gc :
       {GcKind::kG1, GcKind::kCms, GcKind::kZgc, GcKind::kNg2c, GcKind::kRolp}) {
    KvStoreOptions kv;
    kv.num_keys = 8000;
    kv.memtable_flush_rows = 1000;
    KvStoreWorkload w(kv);
    RunResult r = RunWorkload(TestVm(gc), w, ShortRun());
    EXPECT_GT(r.ops, 100u) << GcKindName(gc);
    EXPECT_GT(r.throughput, 0.0) << GcKindName(gc);
  }
}

TEST(KvStoreWorkloadTest, FlushesAndCompacts) {
  KvStoreOptions kv;
  kv.num_keys = 8000;
  kv.memtable_flush_rows = 500;
  kv.max_sstables = 2;
  KvStoreWorkload w(kv);
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, ShortRun(0.8));
  EXPECT_GT(w.flushes(), 2u);
  EXPECT_GT(w.compactions(), 0u);
  EXPECT_GT(r.gc_cycles, 0u);
}

TEST(KvStoreWorkloadTest, ReadsFindWrites) {
  KvStoreOptions kv;
  kv.num_keys = 500;  // small keyspace: reads will hit
  kv.write_fraction = 0.5;
  KvStoreWorkload w(kv);
  RunWorkload(TestVm(GcKind::kG1), w, ShortRun());
  EXPECT_GT(w.reads_hit(), 10u);
}

TEST(KvStoreWorkloadTest, ConcurrentFlushDoesNotDeadlockWithGc) {
  // Regression: Flush() allocates while holding the maintenance lock. A
  // second thread blocked on that lock used to spin without polling, so when
  // the flushing thread's allocation initiated a stop-the-world collection,
  // the safepoint initiator waited forever for the spinning waiter to park.
  // Flushing constantly from several threads makes that collision near-certain
  // within a second.
  KvStoreOptions kv;
  kv.num_keys = 4000;
  kv.memtable_flush_rows = 64;
  KvStoreWorkload w(kv);
  DriverOptions opt;
  opt.threads = 3;
  opt.duration_s = 1.0;
  RunResult r = RunWorkload(TestVm(GcKind::kG1, 48), w, opt);
  EXPECT_GT(r.ops, 100u);
  EXPECT_GT(w.flushes(), 4u);
}

// Model check of the sealed runs, count-driven on one thread. With every op
// a Put, op i writes the generator's i-th key, so a replica generator names
// the keys each flush seals.
TEST(KvStoreWorkloadTest, SealedRunsAreSortedAndHoldEveryFlushedKey) {
  KvStoreOptions kv;
  kv.num_keys = 512;
  kv.write_fraction = 1.0;
  kv.memtable_flush_rows = 300;
  kv.max_sstables = 3;
  KvStoreWorkload w(kv);
  VM vm(TestVm(GcKind::kG1));
  RuntimeThread* t = vm.AttachThread();
  w.Setup(vm, *t);

  ZipfianGenerator replica(kv.num_keys, 0.99, kv.seed);
  std::set<uint64_t> flushed;
  std::vector<uint64_t> memtable;
  for (uint64_t op = 0; op < 8 * kv.memtable_flush_rows + 150; op++) {
    memtable.push_back(replica.Next());
    uint64_t flushes = w.flushes();
    w.Op(*t, op);
    if (w.flushes() != flushes) {
      flushed.insert(memtable.begin(), memtable.end());
      memtable.clear();
    }
  }
  ASSERT_GE(w.flushes(), 3u);
  ASSERT_GE(w.compactions(), 2u);
  ASSERT_FALSE(memtable.empty());  // unflushed puts stay out of the runs

  std::set<uint64_t> sealed;
  for (const std::vector<uint64_t>& run : w.SealedRuns(*t)) {
    EXPECT_TRUE(std::is_sorted(run.begin(), run.end()));
    sealed.insert(run.begin(), run.end());
  }
  EXPECT_EQ(sealed, flushed);
  for (uint64_t key = 0; key < kv.num_keys; key++) {
    EXPECT_EQ(w.SealedContains(*t, key), flushed.count(key) == 1) << "key " << key;
  }
  w.Teardown();
  vm.DetachThread(t);
}

// One mutator Puts, flushing and compacting constantly, while another looks
// keys up in the sealed runs that those publish without a lock. A key once
// found stays found: merges keep every key, and the lookup's walk never
// misses a run that Compact's in-place slide moves.
TEST(KvStoreWorkloadTest, SealedLookupsRaceFlushAndCompact) {
  KvStoreOptions kv;
  kv.num_keys = 2048;
  kv.write_fraction = 1.0;
  kv.memtable_flush_rows = 64;
  kv.max_sstables = 2;
  KvStoreWorkload w(kv);
  VM vm(TestVm(GcKind::kG1, 48));
  {
    RuntimeThread* t = vm.AttachThread();
    w.Setup(vm, *t);
    vm.DetachThread(t);
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    RuntimeThread* t = vm.AttachThread();
    for (uint64_t op = 0; op < 20000; op++) {
      w.Op(*t, op);
    }
    done.store(true);
    vm.DetachThread(t);
  });
  RuntimeThread* t = vm.AttachThread();
  Random rng(7);
  std::vector<bool> seen(kv.num_keys, false);
  uint64_t lookups = 0;
  uint64_t lost = 0;
  while (!done.load()) {
    uint64_t key = rng.NextBounded(kv.num_keys);
    bool hit = w.SealedContains(*t, key);
    lost += seen[key] && !hit ? 1 : 0;
    seen[key] = seen[key] || hit;
    lookups++;
    t->Poll();
  }
  writer.join();
  EXPECT_EQ(lost, 0u);
  EXPECT_GT(lookups, 0u);
  EXPECT_GE(w.compactions(), 10u);
  w.Teardown();
  vm.DetachThread(t);
}

TEST(KvStoreWorkloadTest, RolpProfilesTheDataPath) {
  KvStoreOptions kv;
  kv.num_keys = 8000;
  kv.memtable_flush_rows = 800;
  KvStoreWorkload w(kv);
  VmConfig cfg = TestVm(GcKind::kRolp);
  cfg.jit.hot_threshold = 50;
  RunResult r = RunWorkload(cfg, w, ShortRun(1.0));
  // The package filter admits the data path: some sites must be profiled.
  EXPECT_GT(r.profiled_alloc_sites, 0u);
  EXPECT_LT(r.profiled_alloc_sites, r.total_alloc_sites);  // net package filtered out
  EXPECT_GT(r.old_table_bytes, 0u);
}

TEST(TextIndexWorkloadTest, IndexesSealsAndMerges) {
  TextIndexOptions ti;
  ti.vocab = 4000;
  ti.docs_per_segment = 150;
  ti.max_segments = 2;
  TextIndexWorkload w(ti);
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, ShortRun(0.8));
  EXPECT_GT(w.segments_sealed(), 1u);
  EXPECT_GT(w.queries(), 0u);
  EXPECT_GT(r.ops, 100u);
}

TEST(TextIndexWorkloadTest, RunsUnderCmsAndRolp) {
  for (GcKind gc : {GcKind::kCms, GcKind::kRolp}) {
    TextIndexOptions ti;
    ti.vocab = 4000;
    ti.docs_per_segment = 200;
    TextIndexWorkload w(ti);
    RunResult r = RunWorkload(TestVm(gc), w, ShortRun());
    EXPECT_GT(r.ops, 50u) << GcKindName(gc);
  }
}

TEST(GraphWorkloadTest, ConnectedComponentsConverges) {
  GraphOptions go;
  go.vertices = 4000;
  go.edges_per_vertex = 6;
  go.intervals = 4;
  GraphWorkload w(go);
  DriverOptions opt = ShortRun(1.0);
  opt.max_ops = 64;  // 16 full iterations
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, opt);
  EXPECT_GE(w.iterations(), 2u);
  EXPECT_GT(r.ops, 0u);
}

TEST(GraphWorkloadTest, PageRankRuns) {
  GraphOptions go;
  go.algo = GraphAlgo::kPageRank;
  go.vertices = 4000;
  go.intervals = 4;
  GraphWorkload w(go);
  DriverOptions opt = ShortRun(1.0);
  opt.max_ops = 16;
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, opt);
  EXPECT_GT(r.ops, 0u);
}

TEST(GraphWorkloadTest, RunsUnderNg2c) {
  GraphOptions go;
  go.vertices = 4000;
  go.intervals = 4;
  GraphWorkload w(go);
  DriverOptions opt = ShortRun(0.5);
  opt.max_ops = 24;
  RunResult r = RunWorkload(TestVm(GcKind::kNg2c), w, opt);
  EXPECT_GT(r.ops, 0u);
}

TEST(DacapoSuiteTest, HasThirteenBenchmarks) {
  EXPECT_EQ(DacapoSuite().size(), 13u);
  EXPECT_NE(FindDacapoSpec("avrora"), nullptr);
  EXPECT_NE(FindDacapoSpec("xalan"), nullptr);
  EXPECT_EQ(FindDacapoSpec("nope"), nullptr);
}

TEST(DacapoWorkloadTest, SmallBenchmarksRun) {
  for (const char* name : {"avrora", "lusearch", "pmd"}) {
    const DacapoSpec* spec = FindDacapoSpec(name);
    ASSERT_NE(spec, nullptr);
    DacapoWorkload w(*spec);
    VmConfig cfg = TestVm(GcKind::kG1, spec->heap_mb);
    cfg.jit.hot_threshold = 20;
    RunResult r = RunWorkload(cfg, w, ShortRun(0.3));
    EXPECT_GT(r.ops, 5u) << name;
  }
}

TEST(DacapoWorkloadTest, ExceptionsUnwindSafely) {
  const DacapoSpec* spec = FindDacapoSpec("tradesoap");  // highest exc rate
  ASSERT_NE(spec, nullptr);
  DacapoWorkload w(*spec);
  VmConfig cfg = TestVm(GcKind::kRolp, spec->heap_mb);
  cfg.jit.hot_threshold = 20;
  RunResult r = RunWorkload(cfg, w, ShortRun(0.5));
  EXPECT_GT(w.exceptions_thrown(), 0u);
  EXPECT_GT(r.ops, 0u);
}

TEST(DriverTest, WarmupExcludesEarlyPauses) {
  KvStoreOptions kv;
  kv.num_keys = 8000;
  KvStoreWorkload w(kv);
  DriverOptions opt;
  opt.duration_s = 0.8;
  opt.warmup_s = 0.4;
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, opt);
  EXPECT_LE(r.pauses.size(), r.all_pauses.size());
  for (const auto& p : r.pauses) {
    EXPECT_GE(p.start_ns, r.run_start_ns + 400000000ull);
  }
}

TEST(DriverTest, PercentileHelpersAreExact) {
  std::vector<PauseRecord> pauses;
  for (uint64_t i = 1; i <= 100; i++) {
    pauses.push_back({0, i * 1000000, PauseKind::kYoung, 0});
  }
  EXPECT_NEAR(PercentileMsOf(pauses, 50), 50.5, 0.6);
  EXPECT_NEAR(PercentileMsOf(pauses, 100), 100.0, 0.01);
  EXPECT_NEAR(PercentileMsOf(pauses, 0), 1.0, 0.01);
}

TEST(DriverTest, MultiThreadedRun) {
  KvStoreOptions kv;
  kv.num_keys = 8000;
  KvStoreWorkload w(kv);
  DriverOptions opt = ShortRun(0.5);
  opt.threads = 2;
  RunResult r = RunWorkload(TestVm(GcKind::kG1), w, opt);
  EXPECT_GT(r.ops, 100u);
}

TEST(RolpEndToEndTest, LearnsAndReducesCopyingVsG1) {
  // The paper's core claim at miniature scale: after ROLP learns, NG2C
  // pretenuring reduces GC copying relative to G1 for the same workload.
  KvStoreOptions kv;
  kv.num_keys = 12000;
  kv.value_bytes = 512;
  // Memtable epochs must span several young collections for lifetimes to be
  // observable (as they do at production scale).
  kv.memtable_flush_rows = 6000;
  DriverOptions opt;
  opt.duration_s = 4.0;

  VmConfig g1 = TestVm(GcKind::kG1, 48);
  g1.jit.hot_threshold = 50;
  g1.young_fraction = 0.12;
  KvStoreWorkload wg1(kv);
  RunResult rg1 = RunWorkload(g1, wg1, opt);

  VmConfig rolp = TestVm(GcKind::kRolp, 48);
  rolp.jit.hot_threshold = 50;
  rolp.young_fraction = 0.12;
  rolp.rolp.inference_period = 8;
  KvStoreWorkload wrolp(kv);
  RunResult rrolp = RunWorkload(rolp, wrolp, opt);

  ASSERT_GT(rg1.gc_cycles, 3u);
  ASSERT_GT(rrolp.gc_cycles, 3u);
  // ROLP must have produced decisions (learned lifetimes).
  EXPECT_GT(rrolp.first_decision_cycle, 0u);
  // Copying per operation should drop once pretenuring kicks in.
  double g1_copy_per_op = static_cast<double>(rg1.bytes_copied) / rg1.ops;
  double rolp_copy_per_op = static_cast<double>(rrolp.bytes_copied) / rrolp.ops;
  EXPECT_LT(rolp_copy_per_op, g1_copy_per_op)
      << "ROLP did not reduce copying (g1=" << g1_copy_per_op
      << " rolp=" << rolp_copy_per_op << ")";
}

}  // namespace
}  // namespace rolp
