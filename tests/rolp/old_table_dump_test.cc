#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/heap/object.h"
#include "src/rolp/profiler.h"

namespace rolp {
namespace {

uint64_t MarkFor(uint32_t context, uint32_t age) {
  return markword::SetAge(markword::SetContext(0, context), age);
}

RolpConfig SmallConfig() {
  RolpConfig cfg;
  cfg.old_table_entries = 4096;
  cfg.inference_period = 4;
  return cfg;
}

std::string Dump(const Profiler& p) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  EXPECT_NE(mem, nullptr);
  p.DumpIntrospection(mem);
  std::fclose(mem);
  std::string out(buf, len);
  free(buf);
  return out;
}

TEST(OldTableDumpTest, FreshProfilerGolden) {
  Profiler p(SmallConfig());
  char expected[512];
  std::snprintf(expected, sizeof(expected),
                "== ROLP profiler introspection ==\n"
                "old_table: capacity=%zu occupied=0 dropped=0 rejected=0 "
                "grows=0 paper_bytes=%zu\n"
                "degraded: no (entries=0, last_reason=none)\n"
                "survivor_tracking: on (toggles=0)\n"
                "inferences: 0 (async_started=0, stale_discarded=0)\n"
                "conflicts_total: 0\n"
                "decisions: 0\n"
                "rows: 0\n",
                p.old_table().capacity(), p.old_table().PaperMemoryBytes());
  EXPECT_EQ(Dump(p), expected);
}

TEST(OldTableDumpTest, PopulatedStateGolden) {
  Profiler p(SmallConfig());
  // Two contexts; ctx_a's objects reliably survive to age 3, so the period-4
  // inference pretenures it into generation 3 (same state the profiler unit
  // tests pin down). ctx_b only allocates.
  uint32_t ctx_a = markword::MakeContext(20, 0);
  uint32_t ctx_b = markword::MakeContext(7, 3);
  for (int i = 0; i < 1000; i++) {
    p.RecordAllocation(ctx_a);
  }
  for (uint32_t age = 0; age < 3; age++) {
    for (int i = 0; i < 1000; i++) {
      p.OnSurvivor(0, MarkFor(ctx_a, age));
    }
    p.OnGcEnd({age + 1, 1000, PauseKind::kYoung});
  }
  p.OnGcEnd({4, 1000, PauseKind::kYoung});  // cycle 4: inference runs
  ASSERT_EQ(p.inferences_run(), 1u);
  ASSERT_EQ(p.TargetGen(ctx_a), 3u);
  // Post-inference allocations land in the cleared counting window.
  for (int i = 0; i < 5; i++) {
    p.RecordAllocation(ctx_b);
  }
  for (int i = 0; i < 2; i++) {
    p.RecordAllocation(ctx_a);
  }
  p.OnSurvivor(0, MarkFor(ctx_a, 0));
  p.OnGcEnd({5, 1000, PauseKind::kYoung});  // merge the survivor, no inference

  char expected[1024];
  std::snprintf(expected, sizeof(expected),
                "== ROLP profiler introspection ==\n"
                "old_table: capacity=%zu occupied=2 dropped=0 rejected=0 "
                "grows=0 paper_bytes=%zu\n"
                "degraded: no (entries=0, last_reason=none)\n"
                "survivor_tracking: on (toggles=0)\n"
                "inferences: 1 (async_started=0, stale_discarded=0)\n"
                "conflicts_total: 0\n"
                "decisions: 1\n"
                "  ctx=0x00140000 site=20 tss=0 gen=3\n"
                "rows: 2\n"
                "  ctx=0x00070003 site=7 tss=3 decision=0 total=5 ages: 0:5\n"
                "  ctx=0x00140000 site=20 tss=0 decision=3 total=2 ages: 0:1 1:1\n",
                p.old_table().capacity(), p.old_table().PaperMemoryBytes());
  EXPECT_EQ(Dump(p), expected);
}

TEST(OldTableDumpTest, DegradedStateIsReported) {
  RolpConfig cfg = SmallConfig();
  Profiler p(cfg);
  uint32_t ctx = markword::MakeContext(20, 0);
  p.RecordAllocation(ctx);
  // Force saturation-degrade via the public hook path: report implausible
  // per-age counts instead, which is deterministic from the outside.
  for (int i = 0; i < 10; i++) {
    p.OnSurvivor(0, MarkFor(ctx, 0));
  }
  p.old_table().RecordSurvivor(ctx, 1, (1u << 31) + 1);  // implausible count
  p.OnGcEnd({4, 1000, PauseKind::kYoung});
  ASSERT_TRUE(p.degraded());
  std::string dump = Dump(p);
  EXPECT_NE(dump.find("degraded: yes (entries=1, last_reason=implausible-histogram)"),
            std::string::npos);
  EXPECT_NE(dump.find("survivor_tracking: off (toggles=1)"), std::string::npos);
  EXPECT_NE(dump.find("decisions: 0\n"), std::string::npos);
}

TEST(OldTableDumpTest, WriteIntrospectionCreatesFile) {
  Profiler p(SmallConfig());
  // Per-process name: concurrent test processes share the temp dir.
  std::string path =
      ::testing::TempDir() + "/old_table_dump." + std::to_string(getpid()) + ".txt";
  ASSERT_TRUE(p.WriteIntrospection(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_STREQ(line, "== ROLP profiler introspection ==\n");
}

}  // namespace
}  // namespace rolp
