// Heap invariant verifier.
//
// Two usage modes:
//
//  * Verify(): the original full-heap, serial debugging pass (tests call it
//    between operations). Checks that every non-free region is walkable, no
//    object is left forwarded outside a pause, every reference field points
//    at a plausible object, remembered sets are complete, and roots are sane.
//
//  * In-pause passes (ROLP_VERIFY=pause|full): cost-bounded checks that run
//    at GC phase boundaries while the world is stopped, parallelized over the
//    collector's WorkerPool and cancellable by the GC watchdog (they run
//    under GcPhase::kVerify). Pause-level passes walk 1 in
//    ROLP_VERIFY_SAMPLE regions with a rotating offset so successive pauses
//    cover the whole heap; full level walks everything.
//
//      - VerifyPostMark: mark bitmap vs region live accounting spot checks
//        (mismatched live counts are repaired in place — the recount is the
//        truth) and root-is-marked reachability probes.
//      - VerifyCollectionSet: after evacuation, no root and no surviving
//        object may still reference an unforwarded object in a region about
//        to be freed. References to forwarded objects are healed. Unforwarded
//        targets name regions the caller must quarantine instead of free;
//        CascadeQuarantine computes the closed set and scrubs the kept
//        regions so they stay walkable.
//      - VerifySampledWalk: structural region walks (tiling, reference
//        plausibility, stale forwarding, remset completeness) plus the
//        OLD-table cross-check: every live profiled object's allocation
//        context must resolve in the table.
//
// The verifier only reports; deciding to quarantine, degrade, or abort is the
// collector's recovery policy (Collector::ApplyVerification).
#ifndef SRC_GC_HEAP_VERIFIER_H_
#define SRC_GC_HEAP_VERIFIER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/gc/mark_bitmap.h"
#include "src/gc/thread_context.h"
#include "src/gc/watchdog/cancellation.h"
#include "src/gc/worker_pool.h"
#include "src/heap/heap.h"

namespace rolp {

// In-pause verification level (ROLP_VERIFY=off|pause|full).
enum class VerifyLevel : uint8_t { kOff, kPause, kFull };

const char* VerifyLevelName(VerifyLevel level);

struct VerifyOptions {
  VerifyLevel level = VerifyLevel::kOff;
  // Pause-level cost bound: each pass walks 1 in `sample_period` regions,
  // offset rotating per pass (ROLP_VERIFY_SAMPLE, default 8; full level
  // ignores it and walks everything).
  uint32_t sample_period = 8;
  bool check_remsets = true;
  // OLD-table cross-check: returns whether the profiler can account for a
  // nonzero allocation context seen on a live object. Null disables the
  // check.
  std::function<bool(uint32_t)> context_known;
  // Invoked once at the start of each sampled-walk pass, before any
  // context_known call, on the pause thread. Lets the installer refresh
  // per-pass state (the VM uses it to suppress the OLD-table check only for
  // passes where the table shed samples since the previous pass, instead of
  // forever after the first drop).
  std::function<void()> on_pass_begin;

  bool enabled() const { return level != VerifyLevel::kOff; }
  uint32_t EffectivePeriod() const {
    return level == VerifyLevel::kFull || sample_period < 1 ? 1 : sample_period;
  }

  // Reads ROLP_VERIFY / ROLP_VERIFY_SAMPLE.
  static VerifyOptions FromEnv();
};

class HeapVerifier {
 public:
  struct Finding {
    enum class Kind : uint8_t {
      kRegionCorrupt,   // unwalkable tiling / implausible object inside a region
      kStaleForward,    // forwarded object found outside an evacuation pause
      kStaleRef,        // live reference into a region about to be freed
      kDanglingRef,     // reference to a free region or implausible object
      kMissingRemset,   // cross-region edge absent from the target's remset
      kBadMark,         // mark bitmap inconsistent with liveness accounting
      kOldTableMiss,    // live profiled context missing from the OLD table
      kRootCorrupt,     // root slot corruption (fatal)
      kForwardCycle,    // forwarding chain does not terminate (fatal)
    };
    static constexpr uint32_t kNoRegion = 0xFFFFFFFFu;

    Kind kind;
    uint32_t region = kNoRegion;  // offending region index, kNoRegion if none
    std::string detail;

    // Fatal findings mean the root set or forwarding graph itself is corrupt;
    // quarantine cannot make continued execution safe.
    bool fatal() const { return kind == Kind::kRootCorrupt || kind == Kind::kForwardCycle; }
  };

  struct Report {
    std::vector<std::string> errors;
    std::vector<Finding> findings;
    uint64_t objects_walked = 0;
    uint64_t refs_checked = 0;
    uint64_t regions_walked = 0;
    uint64_t refs_healed = 0;  // stale refs rewritten to forwarding targets
    uint64_t refs_nulled = 0;  // dangling refs cleared by the repair walk
    bool cancelled = false;    // watchdog cancelled the pass (coverage partial)

    bool ok() const { return errors.empty(); }
    bool has_fatal() const;
    std::string Summary() const;
    void Merge(const Report& other);
    void Add(Finding finding);
  };

  HeapVerifier(Heap* heap, SafepointManager* safepoints, bool check_remsets = true)
      : heap_(heap), safepoints_(safepoints), check_remsets_(check_remsets) {}

  // Full verification. World must be stopped (or single-threaded quiescent).
  Report Verify();

  // --- In-pause passes (world stopped) -------------------------------------
  // `pass` rotates the sampling offset; `workers` may be null (serial).

  Report VerifyPostMark(const MarkBitmap* bitmap, WorkerPool* workers,
                        const VerifyOptions& opts, uint64_t pass,
                        CancellationToken* cancel = nullptr);

  // `doomed` lists exactly the regions the collector is about to free (cset
  // minus evacuation-failure and already-quarantined regions). `live_filter`,
  // when given, restricts the survivor scan to marked objects — required
  // whenever evacuation itself filtered sources by the bitmap (mixed
  // collections, ZGC relocation), since dead objects' slots legitimately
  // still point into the collection set there.
  Report VerifyCollectionSet(const std::vector<Region*>& doomed, WorkerPool* workers,
                             const VerifyOptions& opts, uint64_t pass,
                             CancellationToken* cancel = nullptr,
                             const MarkBitmap* live_filter = nullptr);

  // Closes the quarantine set over `doomed` starting from the regions flagged
  // in `report` (kStaleRef findings): walks each kept region, heals its
  // references, scrubs stale forwarded copies into free blocks, and pulls in
  // any other doomed region a surviving object still points into. Returns the
  // region indices to quarantine; appends healing counts to `report`.
  std::vector<uint32_t> CascadeQuarantine(const std::vector<Region*>& doomed,
                                          Report* report);

  // `repair` nulls dangling references instead of only reporting them (used
  // by in-pause runs; the test-facility Verify() never repairs).
  Report VerifySampledWalk(WorkerPool* workers, const VerifyOptions& opts, uint64_t pass,
                           bool repair, CancellationToken* cancel = nullptr);

 private:
  void VerifyRegion(Region* region, Report* report);
  void VerifyObjectRefs(Object* obj, Region* region, Report* report);
  bool PlausibleObject(Object* obj, Report* report, const char* what,
                       uint32_t region_index = Finding::kNoRegion);
  // PlausibleObject for a reference target, which also may not be a free
  // block: a reference into swept or scrubbed memory dangles.
  bool PlausibleTarget(Object* obj, Report* report, const char* what);
  // Walk helper for the sampled structural pass (adds repair + OLD-table).
  void WalkRegionChecked(Region* region, const VerifyOptions& opts, bool repair,
                         Report* report);
  // Checks one slot against the doomed set; heals forwarded targets. Returns
  // the doomed region index the slot still points into (unforwarded target),
  // or Finding::kNoRegion.
  uint32_t CheckSlotAgainstDoomed(std::atomic<Object*>* slot, Region* slot_region,
                                  const std::vector<uint8_t>& doomed_map, Report* report,
                                  const char* what);
  void CheckRootsAgainstDoomed(const std::vector<uint8_t>& doomed_map, Report* report);

  Heap* heap_;
  SafepointManager* safepoints_;
  bool check_remsets_;
};

}  // namespace rolp

#endif  // SRC_GC_HEAP_VERIFIER_H_
