// Three-stage streaming-ingest pipeline (DESIGN.md §16):
//
//   feed parse  --SPSC ring-->  order-book update  --SPSC ring-->  analytics
//
// driven open-loop at a fixed event schedule. The feed stage is paced by the
// absolute-deadline Pacer and stamps every event with its *scheduled* ingest
// time; the end-to-end jitter the verdict reports is analytics-completion
// minus that schedule slot, so backpressure anywhere in the pipeline — a GC
// pause stalling the book stage, a full ring, governor throttling — is
// charged in full, never silently absorbed (same no-coordinated-omission
// discipline as the service harness).
//
// The identical pipeline runs under four memory arms: pooled-manual (no VM),
// and VM heaps under G1-style regional, ROLP+NG2C, and ZGC. One
// INGEST_VERDICT JSON compares per-arm p50/p99/p99.9/max jitter and
// allocation-path ns/event.
#ifndef SRC_WORKLOADS_MARKETDATA_PIPELINE_H_
#define SRC_WORKLOADS_MARKETDATA_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/pacer.h"
#include "src/workloads/marketdata/book.h"
#include "src/workloads/marketdata/feed.h"

namespace rolp {
namespace marketdata {

enum class ArmKind : uint8_t { kPooled = 0, kG1 = 1, kRolp = 2, kZgc = 3 };

const char* ArmName(ArmKind arm);
bool ParseArm(const std::string& name, ArmKind* out);

// How the three stages are scheduled onto OS threads. kThreaded is the real
// deployment shape (three threads, blocking ring hand-offs); on a box with
// fewer cores than pipeline threads the measurement would be dominated by
// scheduler quanta, not by the memory system, so kAuto falls back to kFused:
// one thread drives an event through all three stages (still through the
// rings) between pacing deadlines, keeping the jitter measurement
// GC-dominated on 1–2 core CI machines.
enum class PipelineMode : uint8_t { kAuto = 0, kThreaded = 1, kFused = 2 };

struct IngestOptions {
  double rate_eps = 100000.0;     // fixed inter-arrival schedule
  uint64_t events = 300000;       // scheduled events per arm
  double warmup_fraction = 0.5;   // leading events excluded from jitter stats
  size_t ring_capacity = 4096;    // per-hop SPSC ring slots
  size_t heap_mb = 96;            // VM arms
  uint64_t seed = 0x5eed;
  PipelineMode mode = PipelineMode::kAuto;
  BookOptions book;
  PacerOptions pacing;            // absolute-deadline by default

  // The defaults, with the schedule from ROLP_INGEST_RATE and
  // ROLP_INGEST_EVENTS.
  static IngestOptions FromEnv();
};

struct IngestResult {
  ArmKind arm = ArmKind::kPooled;
  bool survived = false;       // all stages joined, event conservation held

  uint64_t scheduled = 0;      // events the feed schedule contained
  uint64_t parsed = 0;         // survived wire parse
  uint64_t parse_drops = 0;    // corrupt messages (injected)
  uint64_t applied = 0;        // book updates applied
  uint64_t book_drops = 0;     // allocation-failure drops in the book stage
  uint64_t analyzed = 0;       // analytics completions
  uint64_t measured = 0;       // post-warmup jitter samples

  // Feed-stage issuance: measured offered rate over the run (the pacing
  // regression gate: must sit within 1% of rate_eps).
  double offered_eps = 0.0;
  // Post-warmup end-to-end jitter (analytics done - scheduled slot), ns.
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
  // Allocation-path cost charged by the book + analytics stages.
  double alloc_ns_per_event = 0.0;

  // VM arms only (zero for pooled).
  uint64_t gc_pauses = 0;
  double max_pause_ms = 0.0;
  uint64_t governor_throttle_stalls = 0;
  uint64_t recoverable_ooms = 0;

  BookStats book;
};

// Runs the full pipeline for one arm. Deterministic feed for a given seed,
// so two arms with the same options see byte-identical event streams.
IngestResult RunIngest(ArmKind arm, const IngestOptions& options);

// One-line INGEST_VERDICT payload (without the prefix) comparing all arms.
std::string IngestVerdictJson(const std::vector<IngestResult>& arms,
                              const IngestOptions& options);

}  // namespace marketdata
}  // namespace rolp

#endif  // SRC_WORKLOADS_MARKETDATA_PIPELINE_H_
