// Abstract collector interface. The runtime's allocation fast path is a TLAB
// bump; everything else (TLAB refill, pretenured allocation, humongous
// allocation, GC triggering) funnels into AllocateSlow.
#ifndef SRC_GC_COLLECTOR_H_
#define SRC_GC_COLLECTOR_H_

#include <memory>

#include "src/gc/gc_config.h"
#include "src/gc/gc_metrics.h"
#include "src/gc/heap_verifier.h"
#include "src/gc/profiler_hooks.h"
#include "src/gc/thread_context.h"
#include "src/gc/watchdog/gc_watchdog.h"
#include "src/gc/worker_pool.h"
#include "src/heap/heap.h"

namespace rolp {

class EvacuationTask;

struct AllocRequest {
  ClassId cls = 0;
  size_t total_bytes = 0;    // header + payload, aligned
  uint64_t array_length = 0; // for array classes
  uint32_t context = 0;      // allocation context to install (0 = unprofiled)
  // 0 = young, 1..14 = NG2C dynamic generation, 15 = old (pretenured).
  uint8_t target_gen = kYoungGen;
};

// Outcome of a slow-path allocation. Genuine out-of-memory is recoverable:
// the collector runs bounded GC-and-retry and then reports kOutOfMemory
// instead of aborting, so callers (workloads, services) can shed load, free
// caches, or fail the one request while the process lives on.
enum class AllocStatus : uint8_t {
  kOk,
  kOutOfMemory,  // bounded GC-and-retry exhausted without satisfying the request
};

struct AllocResult {
  Object* object = nullptr;
  AllocStatus status = AllocStatus::kOk;
  // Collections this request triggered before succeeding or giving up.
  uint8_t gc_attempts = 0;

  bool ok() const { return status == AllocStatus::kOk; }

  static AllocResult Ok(Object* obj, uint8_t attempts = 0) {
    return AllocResult{obj, AllocStatus::kOk, attempts};
  }
  static AllocResult OutOfMemory(uint8_t attempts) {
    return AllocResult{nullptr, AllocStatus::kOutOfMemory, attempts};
  }
};

// Cumulative in-pause verification accounting (see DESIGN.md section 12).
struct VerifyStats {
  uint64_t passes = 0;
  uint64_t findings = 0;
  uint64_t refs_healed = 0;
  uint64_t refs_nulled = 0;
  uint64_t passes_cancelled = 0;
  uint64_t regions_quarantined = 0;
};

class Collector {
 public:
  Collector(Heap* heap, const GcConfig& config, SafepointManager* safepoints);
  virtual ~Collector() = default;

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  virtual const char* name() const = 0;

  // Allocates and initializes an object when the TLAB fast path cannot. May
  // stop the world (bounded GC-and-retry). Never aborts: genuine exhaustion
  // comes back as AllocStatus::kOutOfMemory.
  virtual AllocResult AllocateSlow(MutatorContext* ctx, const AllocRequest& req) = 0;

  // Hands the mutator a fresh eden region for its TLAB, possibly collecting
  // first. Returns nullptr on out-of-memory.
  virtual Region* RefillTlab(MutatorContext* ctx) = 0;

  // Forces a full collection (tests, examples, leak reports).
  virtual void CollectFull(MutatorContext* ctx) = 0;

  // Called when a mutator thread exits; releases its TLAB region back.
  virtual void OnMutatorExit(MutatorContext* ctx) { ctx->tlab.Release(); }

  GcMetrics& metrics() { return metrics_; }
  const GcConfig& config() const { return config_; }
  Heap& heap() { return *heap_; }
  SafepointManager& safepoints() { return *safepoints_; }

  void set_profiler(ProfilerHooks* profiler) { profiler_ = profiler; }
  ProfilerHooks* profiler() const { return profiler_; }

  // nullptr when ROLP_WATCHDOG=0 (the disabled watchdog has no cost).
  GcWatchdog* watchdog() const { return watchdog_.get(); }
  // Replaces the env-configured watchdog (tests use short deadlines).
  void InstallWatchdog(const WatchdogConfig& config) {
    watchdog_ = std::make_unique<GcWatchdog>(config, workers_.get());
  }
  WorkerPool* workers() const { return workers_.get(); }

  // In-pause verification knobs (ROLP_VERIFY / ROLP_VERIFY_SAMPLE at
  // construction; tests and the runtime override, e.g. to install the
  // OLD-table cross-check or force exhaustive sampling).
  const VerifyOptions& verify_options() const { return verify_options_; }
  VerifyOptions& mutable_verify_options() { return verify_options_; }
  const VerifyStats& verify_stats() const { return verify_stats_; }

 protected:
  // Recovery policy for a completed verification pass: account the report,
  // log findings, abort (with crash context) on fatal corruption, and push
  // the profiler into degraded mode otherwise. Returns true if the report
  // carried any finding.
  bool ApplyVerification(const char* when, const HeapVerifier::Report& report);

  // Quarantines every region the post-evacuation check flagged (closing the
  // set over `doomed` first). Quarantined regions must not be freed by the
  // caller. Returns the quarantined region indices.
  std::vector<uint32_t> QuarantineFlagged(HeapVerifier* verifier,
                                          const std::vector<Region*>& doomed,
                                          HeapVerifier::Report* report);

  // An evacuation-failure region retired to old still holds the stale
  // originals of successfully-copied objects and the dead objects the
  // evacuation never reached, and its in-place survivors' cross-region edges
  // were recorded under young-to-young rules. Runs while the survivors are
  // still self-forwarded: scrubs every other object into a free block (as
  // G1 fills the dead ranges of a failed region), recounts live bytes, and
  // re-records the survivors' edges in the targets' remsets so the retired
  // region is indistinguishable from a normal old region.
  void ScrubRetiredEvacFailure(Region* region);

  // Remembered-set source regions of `cset`: regions recorded as holding
  // references into any collection-set region, less free, cset,
  // humongous-continuation and unscannable ones. Sharded over the cset on the
  // workers; a region's first claimant publishes it.
  std::vector<Region*> RemsetSources(const std::vector<Region*>& cset);

  // World stopped, after the copy: restores self-forwarded marks, retires
  // the cset regions holding in-place survivors to old
  // (ScrubRetiredEvacFailure), books the pause's evacuation time since
  // `evac_t0` (0: not booked), checks the other cset regions for references
  // left behind (`live_filter`: marks trusted this cycle), quarantines the
  // flagged ones and frees the rest, clearing their range of `clear_marks`
  // when given. Accounts bytes copied and promoted, per worker too. Returns
  // the bytes copied.
  uint64_t FinishEvacuation(EvacuationTask* task, const std::vector<Region*>& cset,
                            uint64_t evac_t0, const char* when, const MarkBitmap* live_filter,
                            MarkBitmap* clear_marks);

  // Sampled structural walk (rotating 1-in-N coverage) with repair on: region
  // tiling, reference plausibility, stale forwarding, remset completeness and
  // the OLD-table cross-check. Dangling references are nulled and missing
  // remset entries re-added; a region whose tiling broke is quarantined
  // unwalkable. No-op unless verification is on.
  void RunSampledWalk(const char* when);

  // Records every cross-region edge held by `region`'s objects in the
  // targets' remsets. Needed when a young region is retired in place (pinned
  // by quarantine): its outgoing edges were recorded under young-source rules
  // — i.e. never — so without this, references into the same pause's
  // collection set would go undiscovered and later pauses could not rescan
  // the region as a remset source.
  void RecordCrossRegionEdges(Region* region);

  // Monotonic pass counter driving the rotating sampling offset.
  uint64_t NextVerifyPass() { return verify_pass_++; }

  // Bounded backoff between failed allocation attempts: lets a competing
  // thread's collection finish instead of hammering the region lock, without
  // ever blocking indefinitely.
  static void AllocationBackoff(int attempt);

  Heap* heap_;
  GcConfig config_;
  SafepointManager* safepoints_;
  GcMetrics metrics_;
  ProfilerHooks* profiler_ = nullptr;
  std::unique_ptr<WorkerPool> workers_;
  std::unique_ptr<GcWatchdog> watchdog_;

  VerifyOptions verify_options_;
  VerifyStats verify_stats_;
  uint64_t verify_pass_ = 0;
};

}  // namespace rolp

#endif  // SRC_GC_COLLECTOR_H_
