#include "src/util/metrics_registry.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/util/histogram.h"

namespace rolp {
namespace {

TEST(MetricsRegistryTest, CounterGetOrCreateReturnsSamePointer) {
  MetricsRegistry reg;
  MetricCounter* a = reg.Counter("test.count");
  MetricCounter* b = reg.Counter("test.count");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.num_counters(), 1u);
  a->Add();
  b->Add(4);
  EXPECT_EQ(a->Value(), 5u);
}

TEST(MetricsRegistryTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry reg;
  MetricCounter* c = reg.Counter("test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&reg] {
      // Mix get-or-create with increments: registration must not invalidate
      // the pointer other threads hold.
      MetricCounter* mine = reg.Counter("test.concurrent");
      for (int i = 0; i < kIncrements; i++) {
        mine->Add();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, GaugeSamplesAtCollectTime) {
  MetricsRegistry reg;
  double value = 1.5;
  int id = reg.RegisterGauge("test.gauge", [&value] { return value; });
  auto snap = reg.Collect();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "test.gauge");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 1.5);
  value = 2.0;
  EXPECT_DOUBLE_EQ(reg.Collect().gauges[0].second, 2.0);
  reg.Unregister(id);
  EXPECT_TRUE(reg.Collect().gauges.empty());
}

TEST(MetricsRegistryTest, ReRegisteringNameReplacesIt) {
  MetricsRegistry reg;
  reg.RegisterGauge("test.gauge", [] { return 1.0; });
  reg.RegisterGauge("test.gauge", [] { return 2.0; });
  auto snap = reg.Collect();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.0);
}

TEST(MetricsRegistryTest, ScopedMetricsUnregistersOnDestruction) {
  MetricsRegistry reg;
  {
    ScopedMetrics scoped(&reg);
    scoped.Gauge("test.gauge", [] { return 1.0; });
    scoped.Histogram("test.hist", [] { return HistogramSnapshot{}; });
    EXPECT_EQ(reg.num_gauges(), 1u);
    EXPECT_EQ(reg.num_histograms(), 1u);
  }
  EXPECT_EQ(reg.num_gauges(), 0u);
  EXPECT_EQ(reg.num_histograms(), 0u);
}

TEST(MetricsRegistryTest, SnapshotLogHistogramBridgesAllFields) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  HistogramSnapshot s = SnapshotLogHistogram(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(s.mean, 500.5, 0.001);
  // Log-bucketed percentiles are upper bounds within ~3%.
  EXPECT_GE(s.p50, 500u);
  EXPECT_LE(s.p50, 532u);
  EXPECT_GE(s.p90, 900u);
  EXPECT_LE(s.p99, 1000u);
  EXPECT_LE(s.p999, 1000u);
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTripsValues) {
  MetricsRegistry reg;
  reg.Counter("b.count")->Add(42);
  reg.Counter("a.count")->Add(7);
  reg.RegisterGauge("test.gauge", [] { return 2.5; });
  LogHistogram h;
  h.Record(100);
  reg.RegisterHistogram("test.hist", [&h] { return SnapshotLogHistogram(h); });

  std::string json = reg.ToJson();
  // Counters are emitted name-sorted (std::map order) with exact values.
  size_t a = json.find("\"a.count\":7");
  size_t b = json.find("\"b.count\":42");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(json.find("\"test.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\":{\"count\":1,\"min\":100,\"max\":100"),
            std::string::npos);
  EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
}

TEST(MetricsRegistryTest, TextSnapshotContainsValues) {
  MetricsRegistry reg;
  reg.Counter("test.count")->Add(13);
  reg.RegisterGauge("test.gauge", [] { return 99.0; });
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  reg.WriteText(mem);
  std::fclose(mem);
  std::string text(buf, len);
  free(buf);
  EXPECT_NE(text.find("== metrics snapshot =="), std::string::npos);
  EXPECT_NE(text.find("test.count"), std::string::npos);
  EXPECT_NE(text.find("13"), std::string::npos);
  EXPECT_NE(text.find("test.gauge"), std::string::npos);
  EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteSnapshotFilesEmitsJsonAndText) {
  MetricsRegistry reg;
  reg.Counter("test.count")->Add(3);
  // Per-process name: concurrent test processes share the temp dir.
  std::string path =
      ::testing::TempDir() + "/metrics_snapshot." + std::to_string(getpid()) + ".json";
  ASSERT_TRUE(reg.WriteSnapshotFiles(path));
  auto slurp = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "r");
    EXPECT_NE(f, nullptr);
    std::string out;
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      out.append(chunk, n);
    }
    std::fclose(f);
    return out;
  };
  EXPECT_NE(slurp(path).find("\"test.count\":3"), std::string::npos);
  EXPECT_NE(slurp(path + ".txt").find("test.count"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".txt").c_str());
}

TEST(MetricsRegistryTest, InstanceIsProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::Instance(), &MetricsRegistry::Instance());
}

}  // namespace
}  // namespace rolp
