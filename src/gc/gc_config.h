// Collector tuning knobs. Defaults approximate HotSpot's G1/CMS behaviour at
// the scaled-down heap sizes this repository runs with.
#ifndef SRC_GC_GC_CONFIG_H_
#define SRC_GC_GC_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace rolp {

inline constexpr uint8_t kYoungGen = 0;    // target_gen value: normal young allocation
inline constexpr uint8_t kOldGenId = 15;   // target_gen value: pretenure straight to old
inline constexpr uint8_t kNumDynamicGens = 14;  // gens 1..14 (paper section 7.1)

struct GcConfig {
  // Number of parallel GC worker threads.
  uint32_t num_workers = 2;

  // Young generation size as a number of regions (0 = derive from the heap's
  // young_fraction).
  size_t young_regions = 0;

  // Survivors older than this are promoted to old (HotSpot
  // MaxTenuringThreshold).
  uint32_t tenuring_threshold = 15;

  // Start mixed collections when tenured occupancy exceeds this fraction of
  // the heap (G1 InitiatingHeapOccupancyPercent analogue).
  double mixed_trigger_occupancy = 0.55;

  // Tenured regions are mixed-collection candidates when their live ratio is
  // below this (G1 LiveThresholdPercent analogue).
  double cset_live_ratio_max = 0.85;

  // At most this many tenured regions are evacuated per mixed pause.
  size_t max_old_cset_regions = 64;

  // NG2C: enable the 14 dynamic generations (paper section 7.1).
  bool use_dynamic_gens = false;

  // Regional collector: copy the collection set concurrently with the
  // mutators (ZGC-style load barrier with reference healing), leaving only
  // root scan + cset selection and a short final remap/retire pause STW
  // (off = the classic fully-STW evacuation pause). ROLP_CONCURRENT_EVAC=on
  // switches it on in the VM; a caller's true always stands.
  bool concurrent_evac = false;

  // CMS: start a concurrent mark-sweep cycle at this tenured occupancy.
  double cms_trigger_occupancy = 0.55;
  // CMS: concurrent work performed per byte allocated (pacing).
  double cms_work_per_alloc_byte = 3.0;

  // Z: start a concurrent cycle at this heap occupancy.
  double z_trigger_occupancy = 0.35;
  // Z: regions with live ratio below this are relocated.
  double z_relocate_live_ratio_max = 0.75;
  // Z: concurrent work performed per byte allocated (pacing).
  double z_work_per_alloc_byte = 4.0;
};

}  // namespace rolp

#endif  // SRC_GC_GC_CONFIG_H_
