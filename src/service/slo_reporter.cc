#include "src/service/slo_reporter.h"

#include <algorithm>
#include <cinttypes>

#include "src/util/check.h"
#include "src/util/clock.h"

namespace rolp {

namespace {
constexpr size_t kSlots1Min = 30;
constexpr uint64_t kSlotNs1Min = 2ULL * 1000 * 1000 * 1000;  // 30 x 2 s
constexpr size_t kSlots15Min = 45;
constexpr uint64_t kSlotNs15Min = 20ULL * 1000 * 1000 * 1000;  // 45 x 20 s
}  // namespace

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kDeadlineMiss:
      return "deadline-miss";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

SloReporter::SlotRing::SlotRing(size_t num_slots, uint64_t slot_ns_in, uint64_t epoch)
    : slots(num_slots), slot_ns(slot_ns_in), epoch_ns(epoch) {}

void SloReporter::SlotRing::Advance(uint64_t now_ns) {
  uint64_t abs_slot = now_ns <= epoch_ns ? 0 : (now_ns - epoch_ns) / slot_ns;
  if (abs_slot <= cur_slot) {
    return;
  }
  // Reset every slot the clock skipped over (bounded by the ring size).
  uint64_t first_stale = cur_slot + 1;
  uint64_t last_stale = std::min(abs_slot, cur_slot + slots.size());
  for (uint64_t s = first_stale; s <= last_stale; s++) {
    slots[s % slots.size()].Reset();
  }
  cur_slot = abs_slot;
}

void SloReporter::SlotRing::Record(uint64_t now_ns, uint64_t value) {
  Advance(now_ns);
  slots[cur_slot % slots.size()].Record(value);
}

LogHistogram SloReporter::SlotRing::Merged(uint64_t now_ns) {
  Advance(now_ns);
  LogHistogram out;
  for (const LogHistogram& h : slots) {
    out.Merge(h);
  }
  return out;
}

SloReporter::SloReporter(uint64_t epoch_ns)
    : epoch_ns_(epoch_ns),
      ring_1min_(kSlots1Min, kSlotNs1Min, epoch_ns),
      ring_15min_(kSlots15Min, kSlotNs15Min, epoch_ns) {}

void SloReporter::Record(const RequestTimeline& t, RequestOutcome outcome) {
  uint64_t lateness =
      t.respond_ns > t.scheduled_ns ? t.respond_ns - t.scheduled_ns : 0;
  std::lock_guard<SpinLock> guard(mu_);
  ring_1min_.Record(t.respond_ns, lateness);
  ring_15min_.Record(t.respond_ns, lateness);
  lateness_alltime_.Record(lateness);
  if (t.enqueue_ns >= t.scheduled_ns) {
    seg_sched_to_enqueue_.Record(t.enqueue_ns - t.scheduled_ns);
  }
  if (t.dequeue_ns >= t.enqueue_ns && t.enqueue_ns != 0) {
    seg_queue_wait_.Record(t.dequeue_ns - t.enqueue_ns);
  }
  if (t.execute_ns >= t.dequeue_ns && t.dequeue_ns != 0) {
    seg_execute_.Record(t.execute_ns - t.dequeue_ns);
  }
  if (t.respond_ns >= t.execute_ns && t.execute_ns != 0) {
    seg_respond_.Record(t.respond_ns - t.execute_ns);
  }
  switch (outcome) {
    case RequestOutcome::kOk:
      ok_++;
      break;
    case RequestOutcome::kDeadlineMiss:
      deadline_miss_++;
      break;
    case RequestOutcome::kRejected:
      rejected_++;
      break;
    case RequestOutcome::kShed:
      shed_++;
      break;
    case RequestOutcome::kFailed:
      failed_++;
      break;
  }
}

void SloReporter::CountRetry() {
  std::lock_guard<SpinLock> guard(mu_);
  retries_++;
}

SloReporter::WindowStats SloReporter::StatsOf(const LogHistogram& h) {
  WindowStats w;
  w.count = h.Count();
  w.p50_ms = NsToMs(h.Percentile(50.0));
  w.p95_ms = NsToMs(h.Percentile(95.0));
  w.p99_ms = NsToMs(h.Percentile(99.0));
  w.p999_ms = NsToMs(h.Percentile(99.9));
  w.max_ms = NsToMs(h.Max());
  return w;
}

SloReporter::Snapshot SloReporter::Collect(uint64_t now_ns) {
  std::lock_guard<SpinLock> guard(mu_);
  Snapshot s;
  s.win_1min = StatsOf(ring_1min_.Merged(now_ns));
  s.win_15min = StatsOf(ring_15min_.Merged(now_ns));
  s.alltime = StatsOf(lateness_alltime_);
  auto seg = [](const LogHistogram& h) {
    SegmentStats out;
    out.count = h.Count();
    out.mean_ms = h.Mean() / 1e6;
    out.p99_ms = NsToMs(h.Percentile(99.0));
    out.max_ms = NsToMs(h.Max());
    return out;
  };
  s.seg_sched_to_enqueue = seg(seg_sched_to_enqueue_);
  s.seg_queue_wait = seg(seg_queue_wait_);
  s.seg_execute = seg(seg_execute_);
  s.seg_respond = seg(seg_respond_);
  s.ok = ok_;
  s.deadline_miss = deadline_miss_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.failed = failed_;
  s.retries = retries_;
  s.total = ok_ + deadline_miss_ + rejected_ + shed_ + failed_;
  if (s.total > 0) {
    s.error_rate =
        static_cast<double>(rejected_ + shed_ + failed_) / static_cast<double>(s.total);
  }
  return s;
}

void SloReporter::PrintReport(std::FILE* out, const std::string& collector,
                              uint64_t now_ns) {
  Snapshot s = Collect(now_ns);
  double uptime_s = static_cast<double>(now_ns - epoch_ns_) / 1e9;
  std::fprintf(out, "SLO report [%s] uptime=%.1fs\n", collector.c_str(), uptime_s);
  std::fprintf(out,
               "  requests: total=%" PRIu64 " ok=%" PRIu64 " deadline_miss=%" PRIu64
               " rejected=%" PRIu64 " shed=%" PRIu64 " failed=%" PRIu64
               " retries=%" PRIu64 " error_rate=%.3f\n",
               s.total, s.ok, s.deadline_miss, s.rejected, s.shed, s.failed, s.retries,
               s.error_rate);
  auto print_window = [out](const char* label, const WindowStats& w) {
    std::fprintf(out,
                 "  lateness %-8s p50=%.2fms p95=%.2fms p99=%.2fms p99.9=%.2fms "
                 "max=%.2fms (n=%" PRIu64 ")\n",
                 label, w.p50_ms, w.p95_ms, w.p99_ms, w.p999_ms, w.max_ms, w.count);
  };
  print_window("1min", s.win_1min);
  print_window("15min", s.win_15min);
  print_window("alltime", s.alltime);
  auto print_segment = [out](const char* label, const SegmentStats& g) {
    std::fprintf(out, "  segment %-14s mean=%.3fms p99=%.2fms max=%.2fms (n=%" PRIu64 ")\n",
                 label, g.mean_ms, g.p99_ms, g.max_ms, g.count);
  };
  print_segment("sched->enqueue", s.seg_sched_to_enqueue);
  print_segment("queue-wait", s.seg_queue_wait);
  print_segment("execute", s.seg_execute);
  print_segment("respond", s.seg_respond);
}

void SloReporter::MergeFrom(SloReporter& other, uint64_t now_ns) {
  ROLP_CHECK(epoch_ns_ == other.epoch_ns_);
  std::lock_guard<SpinLock> guard(mu_);
  std::lock_guard<SpinLock> other_guard(other.mu_);
  // Advancing both rings to the same now pins cur_slot to the same absolute
  // index on both sides, so slot i here and slot i there cover the same
  // wall-clock interval.
  auto merge_ring = [now_ns](SlotRing& dst, SlotRing& src) {
    dst.Advance(now_ns);
    src.Advance(now_ns);
    for (size_t i = 0; i < dst.slots.size(); i++) {
      dst.slots[i].Merge(src.slots[i]);
    }
  };
  merge_ring(ring_1min_, other.ring_1min_);
  merge_ring(ring_15min_, other.ring_15min_);
  lateness_alltime_.Merge(other.lateness_alltime_);
  seg_sched_to_enqueue_.Merge(other.seg_sched_to_enqueue_);
  seg_queue_wait_.Merge(other.seg_queue_wait_);
  seg_execute_.Merge(other.seg_execute_);
  seg_respond_.Merge(other.seg_respond_);
  ok_ += other.ok_;
  deadline_miss_ += other.deadline_miss_;
  rejected_ += other.rejected_;
  shed_ += other.shed_;
  failed_ += other.failed_;
  retries_ += other.retries_;
}

SloReporter::Verdict SloReporter::Evaluate(const std::string& collector,
                                           const SloThresholds& th, bool survived,
                                           uint64_t now_ns, const std::string& extra_json) {
  Snapshot s = Collect(now_ns);
  bool p50_ok = s.alltime.p50_ms <= th.p50_ms;
  bool p95_ok = s.alltime.p95_ms <= th.p95_ms;
  bool p99_ok = s.alltime.p99_ms <= th.p99_ms;
  bool p999_ok = s.alltime.p999_ms <= th.p999_ms;
  bool error_ok = s.error_rate <= th.max_error_rate;
  Verdict v;
  v.pass = survived && p50_ok && p95_ok && p99_ok && p999_ok && error_ok;
  char buf[1536];
  auto window_json = [](const WindowStats& w, char* out, size_t cap) {
    std::snprintf(out, cap,
                  "{\"count\":%" PRIu64
                  ",\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
                  "\"p999_ms\":%.3f,\"max_ms\":%.3f}",
                  w.count, w.p50_ms, w.p95_ms, w.p99_ms, w.p999_ms, w.max_ms);
  };
  char w1[192], w15[192], wall[192];
  window_json(s.win_1min, w1, sizeof(w1));
  window_json(s.win_15min, w15, sizeof(w15));
  window_json(s.alltime, wall, sizeof(wall));
  std::snprintf(
      buf, sizeof(buf),
      "{\"collector\":\"%s\",\"pass\":%s,\"survived\":%s,"
      "\"window_1min\":%s,\"window_15min\":%s,\"alltime\":%s,"
      "\"counts\":{\"total\":%" PRIu64 ",\"ok\":%" PRIu64 ",\"deadline_miss\":%" PRIu64
      ",\"rejected\":%" PRIu64 ",\"shed\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"retries\":%" PRIu64 "},\"error_rate\":%.4f,"
      "\"thresholds\":{\"p50_ms\":%.1f,\"p95_ms\":%.1f,\"p99_ms\":%.1f,"
      "\"p999_ms\":%.1f,\"max_error_rate\":%.3f},"
      "\"checks\":{\"p50\":%s,\"p95\":%s,\"p99\":%s,\"p999\":%s,"
      "\"error_rate\":%s,\"survived\":%s}}",
      collector.c_str(), v.pass ? "true" : "false", survived ? "true" : "false", w1, w15,
      wall, s.total, s.ok, s.deadline_miss, s.rejected, s.shed, s.failed, s.retries,
      s.error_rate, th.p50_ms, th.p95_ms, th.p99_ms, th.p999_ms, th.max_error_rate,
      p50_ok ? "true" : "false", p95_ok ? "true" : "false", p99_ok ? "true" : "false",
      p999_ok ? "true" : "false", error_ok ? "true" : "false",
      survived ? "true" : "false");
  v.json = buf;
  if (!extra_json.empty()) {
    v.json.insert(v.json.size() - 1, "," + extra_json);
  }
  return v;
}

}  // namespace rolp
