// Rolling-window SLO reporter for the open-loop service harness.
//
// Latency discipline (no coordinated omission): every request is charged its
// *lateness* — respond_ns minus the arrival time fixed in advance by the
// open-loop schedule — not just its service time. A request that sat in a
// queue behind a GC pause, was throttled, retried, or was shed still pays for
// every nanosecond the client would have waited. Rejections and sheds are
// terminal responses and are charged at decision time, so a collector cannot
// look good by dropping the slow requests.
//
// Windows: percentiles are reported over the trailing 1-minute and 15-minute
// windows (slot rings of log-bucketed histograms: 30 x 2 s and 45 x 20 s) and
// over the whole run. Per-segment attribution (schedule->enqueue, queue wait,
// execute, respond) is kept all-time.
#ifndef SRC_SERVICE_SLO_REPORTER_H_
#define SRC_SERVICE_SLO_REPORTER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/spinlock.h"

namespace rolp {

// Per-request lifecycle timestamps (monotonic ns). scheduled_ns is the
// arrival time the generator fixed in advance; it never moves, even across
// retries, so lateness always reflects the full client-observed wait.
struct RequestTimeline {
  uint64_t id = 0;            // correlation id, unique per logical request
  uint64_t scheduled_ns = 0;  // planned arrival (fixed in advance)
  uint64_t enqueue_ns = 0;    // admission decision made / queue push
  uint64_t dequeue_ns = 0;    // worker picked it up
  uint64_t execute_ns = 0;    // workload operation finished
  uint64_t respond_ns = 0;    // terminal decision recorded
  uint32_t attempts = 1;      // 1 = first try
};

// Terminal outcome of a logical request. Exactly one is recorded per request.
enum class RequestOutcome : uint8_t {
  kOk = 0,            // completed within deadline
  kDeadlineMiss = 1,  // completed, but after the deadline
  kRejected = 2,      // admission control refused it
  kShed = 3,          // dropped: queue full, expired in queue, or drained
  kFailed = 4,        // execution failed
};

const char* RequestOutcomeName(RequestOutcome outcome);

// Pass/fail thresholds for the machine-readable verdict. Lateness thresholds
// apply to the all-time distribution so the verdict is independent of where
// the windows happen to sit when the run ends.
struct SloThresholds {
  double p50_ms = 400.0;
  double p95_ms = 600.0;
  double p99_ms = 800.0;
  double p999_ms = 1500.0;
  // Rejected+shed+failed over total. Deliberate overload runs shed most of
  // the offered load by design, so the default only catches total collapse.
  double max_error_rate = 0.95;
};

class SloReporter {
 public:
  explicit SloReporter(uint64_t epoch_ns);

  // Records the terminal decision for one logical request. Thread-safe.
  void Record(const RequestTimeline& t, RequestOutcome outcome);
  // Counts a retry grant (the logical request stays open).
  void CountRetry();

  struct WindowStats {
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double max_ms = 0.0;
  };

  struct SegmentStats {
    uint64_t count = 0;
    double mean_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };

  struct Snapshot {
    WindowStats win_1min;
    WindowStats win_15min;
    WindowStats alltime;
    SegmentStats seg_sched_to_enqueue;  // generator lag + admission
    SegmentStats seg_queue_wait;        // enqueue -> dequeue
    SegmentStats seg_execute;           // dequeue -> execute
    SegmentStats seg_respond;           // execute -> respond
    uint64_t total = 0;
    uint64_t ok = 0;
    uint64_t deadline_miss = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    double error_rate = 0.0;  // (rejected + shed + failed) / total
  };
  Snapshot Collect(uint64_t now_ns);

  // Human-readable report (windows, segments, outcome counts).
  void PrintReport(std::FILE* out, const std::string& collector, uint64_t now_ns);

  struct Verdict {
    bool pass = false;
    std::string json;  // one-line "SLO_VERDICT {...}" payload (without prefix)
  };
  // Evaluates the all-time lateness distribution against `thresholds`.
  // `survived` is the zero-abort bit the caller asserts (the process being
  // alive to call this is most of the proof); it is AND-ed into pass.
  // `extra_json` (e.g. "\"shards\":4,\"rss_settled_bytes\":123") is spliced
  // into the verdict object verbatim, for harnesses that carry extra facts.
  Verdict Evaluate(const std::string& collector, const SloThresholds& thresholds,
                   bool survived, uint64_t now_ns, const std::string& extra_json = "");

  // Folds `other`'s state into this reporter: rings slot-by-slot, all-time
  // and segment histograms, and outcome counters. Both reporters must share
  // the same epoch (the sharded harness constructs all of them from one
  // start_ns), so their ring slots line up on the same absolute time grid.
  // Call after `other` stops receiving records.
  void MergeFrom(SloReporter& other, uint64_t now_ns);

 private:
  // Fixed ring of log histograms, one per time slot; Merged() covers the
  // trailing (slots * slot_ns) window. Caller holds mu_.
  struct SlotRing {
    SlotRing(size_t slots, uint64_t slot_ns, uint64_t epoch_ns);
    void Advance(uint64_t now_ns);  // resets slots the clock has passed
    void Record(uint64_t now_ns, uint64_t value);
    LogHistogram Merged(uint64_t now_ns);

    std::vector<LogHistogram> slots;
    uint64_t slot_ns;
    uint64_t epoch_ns;
    uint64_t cur_slot = 0;  // absolute index of the slot last written
  };

  static WindowStats StatsOf(const LogHistogram& h);

  SpinLock mu_;
  uint64_t epoch_ns_;
  SlotRing ring_1min_;
  SlotRing ring_15min_;
  LogHistogram lateness_alltime_;
  LogHistogram seg_sched_to_enqueue_;
  LogHistogram seg_queue_wait_;
  LogHistogram seg_execute_;
  LogHistogram seg_respond_;
  uint64_t ok_ = 0;
  uint64_t deadline_miss_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t failed_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace rolp

#endif  // SRC_SERVICE_SLO_REPORTER_H_
