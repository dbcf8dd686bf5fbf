// Open-loop service harness: drives a workload the way a latency-sensitive
// service is actually loaded, instead of the closed-loop bench driver's
// as-fast-as-possible spin.
//
// The generator thread fixes the arrival schedule in advance (seeded
// exponential or fixed interarrivals at a configured rate) and never waits
// for completions: if the system stalls — a GC pause, allocation throttling,
// a full queue — arrivals keep accruing and every delayed request is charged
// its full lateness from its *scheduled* time. This is the standard defense
// against coordinated omission; a closed-loop driver silently stops offering
// load during exactly the pauses it should be measuring.
//
// Requests flow: generate -> admission (deadline-aware; see admission.h) ->
// bounded queue -> worker (VM-attached mutator thread) -> respond. Sheds at
// any stage are terminal responses recorded with full lateness. Workers that
// find a request already past its deadline drop it without executing and the
// per-class retry budget decides whether a backoff retry is scheduled.
//
// One engine (open_loop.cc) runs every open-loop service: RunService is its
// one-shard case on the caller's workload, RunShardedService (sharded.h) its
// N-shard case behind a consistent-hash router.
#ifndef SRC_SERVICE_OPEN_LOOP_H_
#define SRC_SERVICE_OPEN_LOOP_H_

#include <cstdint>
#include <string>

#include "src/service/admission.h"
#include "src/service/slo_reporter.h"
#include "src/util/pacer.h"
#include "src/workloads/driver.h"
#include "src/workloads/workload.h"

namespace rolp {

// Harness-level request classes for retry budgeting (the workload's own
// read/write mix is internal to its Op).
enum class RequestClass : uint8_t { kRead = 0, kWrite = 1 };
constexpr int kNumRequestClasses = 2;

struct ServiceOptions {
  int workers = 2;
  double duration_s = 10.0;       // open-loop measurement interval
  double warmup_s = 0.0;          // VM pause records before this are excluded
  double rate_rps = 0.0;          // 0 = calibrate: overload_factor x capacity
  double overload_factor = 2.0;   // used only when rate_rps == 0
  double calibrate_s = 1.5;       // closed-loop probe length for calibration
  bool poisson_arrivals = true;   // false = fixed interarrival
  double write_fraction = 0.25;   // request-class mix (retry budgeting)
  double drain_grace_s = 2.0;     // queue drain window after the last arrival
  uint64_t seed = 0x5eed;
  bool use_workload_filter = true;
  AdmissionConfig admission;      // AdmissionConfig::FromEnv() by default
  RetryPolicy retry;              // RetryPolicy::FromEnv() by default
  double retry_ratio = 0.1;       // ROLP_SVC_RETRY_RATIO: retries per request
  SloThresholds slo;              // SloThresholds::FromEnv() by default
  PacerOptions pacing;            // PacerOptions::FromEnv() via FromEnv()

  // Fills rate/admission/retry/slo knobs from the environment
  // (ROLP_SERVICE_RATE, ROLP_SERVICE_OVERLOAD_FACTOR, ROLP_SVC_*, ROLP_SLO_*).
  static ServiceOptions FromEnv();
};

struct ServiceResult {
  // VM-side statistics (pauses, GC counters, profiler summary) via
  // CollectVmStats — same shape the closed-loop driver reports.
  RunResult run;

  double offered_rps = 0.0;    // configured (or calibrated) arrival rate
  double calibrated_rps = 0.0; // closed-loop capacity probe result (0 = none)
  uint64_t offered = 0;        // fresh arrivals generated
  uint64_t admitted = 0;
  uint64_t rejected = 0;          // admission refusals
  uint64_t shed_queue_full = 0;   // dropped at enqueue: queue at capacity
  uint64_t shed_deadline = 0;     // dropped at dequeue: already past deadline
  uint64_t shed_drain = 0;        // dropped when the run ended mid-queue
  uint64_t completed_ok = 0;
  uint64_t deadline_miss = 0;     // executed, but responded past deadline
  uint64_t retries = 0;           // backoff retries granted
  uint64_t retry_denied = 0;      // budget refusals
  uint64_t idle_waits = 0;        // blocking waits of idle workers for a push

  // Governor ladder activity during the run.
  uint64_t governor_max_level = 0;
  uint64_t governor_transitions = 0;
  uint64_t governor_gc_requests = 0;
  uint64_t throttle_stalls = 0;

  bool survived = true;   // process reached the end without aborting
  bool slo_pass = false;
  std::string verdict_json;  // payload of the SLO_VERDICT line
  SloReporter::Snapshot slo;  // end-of-run windows/segments/counts
};

// Human-readable end-of-run report: SLO windows, segment attribution,
// admission/shed counters, governor ladder activity.
void PrintServiceReport(std::FILE* out, const ServiceResult& result);

// Runs `workload` under open-loop load on a fresh VM. Prints nothing; the
// caller decides what to report (see SloReporter::PrintReport and
// ServiceResult::verdict_json).
ServiceResult RunService(const VmConfig& vm_config, Workload& workload,
                         const ServiceOptions& options);

}  // namespace rolp

#endif  // SRC_SERVICE_OPEN_LOOP_H_
