// Metrics registry: one named namespace over the runtime's scattered
// statistics (GcMetrics, Profiler stats, VM OSR/exception-fixup totals,
// watchdog stats, fault-injection fires) with a uniform snapshot/dump path.
//
// Three instrument kinds:
//   * Counter   — a monotonically increasing atomic owned by the registry;
//                 get-or-create by name, stable address, relaxed increments
//                 (safe on warm paths, not on the allocation fast lane).
//   * Gauge     — a callback sampled at snapshot time. This is how existing
//                 subsystems join the registry without restructuring: the VM
//                 registers closures over GcMetrics/Profiler/JIT accessors.
//   * Histogram — a callback returning a HistogramSnapshot (count/min/max/
//                 mean/percentiles), typically bridged from a LogHistogram.
//
// Snapshots render as a human-readable text table and as JSON
// ({"counters":{...},"gauges":{...},"histograms":{...}}). The VM wires
// ROLP_METRICS_DUMP=<path>: a JSON snapshot (plus <path>.txt) written at VM
// teardown. Registration handles are RAII (ScopedMetrics) so gauges never outlive
// the objects their callbacks read.
#ifndef SRC_UTIL_METRICS_REGISTRY_H_
#define SRC_UTIL_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rolp {

class LogHistogram;

class MetricCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

// Samples a LogHistogram into the snapshot form (caller provides locking if
// the histogram is concurrently written).
HistogramSnapshot SnapshotLogHistogram(const LogHistogram& hist);

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;
  using HistogramFn = std::function<HistogramSnapshot()>;

  MetricsRegistry() = default;
  static MetricsRegistry& Instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; the returned pointer stays valid for the registry's
  // lifetime (counters are never unregistered).
  MetricCounter* Counter(const std::string& name);

  // Returns an id for Unregister; re-registering a live name replaces it.
  int RegisterGauge(const std::string& name, GaugeFn fn);
  int RegisterHistogram(const std::string& name, HistogramFn fn);
  void Unregister(int id);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;    // name-sorted
    std::vector<std::pair<std::string, double>> gauges;        // name-sorted
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  Snapshot Collect() const;

  std::string ToJson() const;
  void WriteText(std::FILE* out) const;
  // Prometheus text exposition format (version 0.0.4): counters as `counter`,
  // gauges as `gauge`, histogram snapshots as `summary` (quantile series plus
  // _count). Metric names are sanitized (dots/dashes -> underscores, `rolp_`
  // prefix) so any Prometheus scraper/promtool accepts the payload.
  std::string ToPrometheus() const;
  // JSON to `path` and the text table to `path`.txt; additionally, when
  // ROLP_METRICS_FORMAT=prom, the Prometheus exposition to `path`.prom.
  // Returns false (logged) on I/O failure.
  bool WriteSnapshotFiles(const std::string& path) const;

  size_t num_counters() const;
  size_t num_gauges() const;
  size_t num_histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  struct Entry {
    std::string name;
    GaugeFn gauge;          // exactly one of gauge/histogram is set
    HistogramFn histogram;
  };
  std::map<int, Entry> entries_;
  int next_id_ = 1;
};

// RAII bundle of gauge/histogram registrations: everything registered through
// it is unregistered when it dies (before the objects the callbacks capture).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry = &MetricsRegistry::Instance())
      : registry_(registry) {}
  ~ScopedMetrics() {
    for (int id : ids_) {
      registry_->Unregister(id);
    }
  }

  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  // All names registered after this call get `prefix` prepended. Sharded
  // services label each shard's VM metrics this way ("shard0." etc.) so N
  // shards in one process do not clobber each other's registrations.
  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }

  void Gauge(const std::string& name, MetricsRegistry::GaugeFn fn) {
    ids_.push_back(registry_->RegisterGauge(prefix_ + name, std::move(fn)));
  }
  void Histogram(const std::string& name, MetricsRegistry::HistogramFn fn) {
    ids_.push_back(registry_->RegisterHistogram(prefix_ + name, std::move(fn)));
  }

 private:
  MetricsRegistry* registry_;
  std::string prefix_;
  std::vector<int> ids_;
};

}  // namespace rolp

#endif  // SRC_UTIL_METRICS_REGISTRY_H_
