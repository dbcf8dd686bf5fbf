// The virtual machine facade: owns the heap, the collector selected by a
// JVM-style flag, the JIT engine, and (when ROLP is on) the profiler. ROLP is
// enabled exactly the way the paper ships it: a launch-time flag
// ("-XX:+UseROLP"), no source access or programmer effort required.
#ifndef SRC_RUNTIME_VM_H_
#define SRC_RUNTIME_VM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/gc/collector.h"
#include "src/rolp/profiler.h"
#include "src/runtime/jit.h"
#include "src/util/crash_context.h"
#include "src/util/metrics_registry.h"
#include "src/util/spinlock.h"

namespace rolp {

class RuntimeThread;

enum class GcKind { kG1, kCms, kZgc, kNg2c, kRolp };

const char* GcKindName(GcKind kind);

struct VmConfig {
  size_t heap_mb = 256;
  size_t region_kb = 1024;
  double young_fraction = 0.25;
  GcKind gc = GcKind::kG1;
  GcConfig gc_config;
  // Off-pause lifetime inference (DESIGN.md §10) is on for a VM; a Profiler
  // built directly from RolpConfig keeps the synchronous default.
  RolpConfig rolp = [] {
    RolpConfig r;
    r.async_inference = true;
    return r;
  }();
  JitConfig jit;
  PackageFilter filter;
  // Probability that a method entry simulates an OSR transition corrupting
  // the thread stack state (fault injection; repaired at GC end).
  double osr_corruption_rate = 0.0;
  uint64_t seed = 0x5eed;
  // Prepended to every metric this VM registers ("shard0." etc.) so multiple
  // VMs in one process publish disjoint names. Empty for the common 1-VM case
  // keeps the historical names.
  std::string metrics_prefix;

  // Parses JVM-style flags:
  //   -Xmx<N>m            heap size
  //   -XX:GC=<g1|cms|zgc|ng2c|rolp>
  //   -XX:+UseROLP        shorthand for -XX:GC=rolp
  //   -XX:ROLPFilter=<package>[,<package>...]
  //   -XX:MaxTenuringThreshold=<n>
  //   -XX:ROLPConflictP=<percent>
  //   -XX:ParallelGCThreads=<n>
  // Returns false and fills *error on an unknown flag.
  static bool ParseFlags(const std::vector<std::string>& flags, VmConfig* out,
                         std::string* error);
};

class VM : public ProfilerHooks {
 public:
  explicit VM(const VmConfig& config);
  ~VM() override;

  VM(const VM&) = delete;
  VM& operator=(const VM&) = delete;

  const VmConfig& config() const { return config_; }
  Heap& heap() { return *heap_; }
  Collector& collector() { return *collector_; }
  JitEngine& jit() { return *jit_; }
  Profiler* profiler() { return profiler_.get(); }  // null unless GC=rolp
  SafepointManager& safepoints() { return safepoints_; }

  // Attaches the calling thread as a mutator. The returned object stays valid
  // until DetachThread.
  RuntimeThread* AttachThread();
  void DetachThread(RuntimeThread* thread);

  GlobalRef NewGlobalRoot(Object* initial);
  // Barriered read of a global root (stays valid under the Z collector).
  Object* LoadGlobal(const GlobalRef& ref);

  // --- ProfilerHooks: collector events are filtered through the VM so the
  // runtime can piggy-back OSR stack-state verification on pause ends. ------
  bool SurvivorTrackingEnabled() const override;
  void OnSurvivor(uint32_t worker_id, uint64_t old_mark) override;
  void OnGcEnd(const GcEndInfo& info) override;
  void OnGenFragmentation(uint8_t gen, double live_ratio) override;
  void OnGcOverrun(bool survivor_tracking_active) override;
  void OnHeapCorruption(size_t finding_count) override;

  // Aggregated runtime stats (live + detached threads).
  uint64_t total_exception_fixups() const;
  uint64_t total_osr_injected() const;
  uint64_t total_osr_repaired() const;
  uint64_t total_allocations() const;
  uint64_t total_recoverable_ooms() const;

 private:
  // Publishes the VM's scattered statistics (GcMetrics, profiler, thread
  // totals, watchdog, fault injection) as named gauges/histograms in the
  // process metrics registry (DESIGN.md §11).
  void RegisterMetrics();
  // Writes the ROLP_METRICS_DUMP / ROLP_DUMP_OLD_TABLE files if configured.
  void WriteObservabilityDumps();

  VmConfig config_;
  std::unique_ptr<Heap> heap_;
  SafepointManager safepoints_;
  std::unique_ptr<JitEngine> jit_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<Collector> collector_;

  mutable SpinLock threads_lock_;
  std::vector<RuntimeThread*> threads_;
  std::vector<std::unique_ptr<RuntimeThread>> all_threads_;  // owns, incl. detached
  uint32_t next_thread_id_ = 1;

  // Last completed pause, captured for crash-context reports. Written only
  // with the world stopped; the crash path reads it best-effort.
  GcEndInfo last_gc_end_{};
  std::unique_ptr<ScopedCrashContextProvider> crash_provider_;

  // Observability (DESIGN.md §11). Declared last so the gauge registrations
  // are torn down before the subsystems their callbacks read.
  std::string metrics_dump_path_;     // ROLP_METRICS_DUMP
  std::string old_table_dump_path_;   // ROLP_DUMP_OLD_TABLE
  ScopedMetrics metrics_publisher_;
};

}  // namespace rolp

#endif  // SRC_RUNTIME_VM_H_
