// Measurement half of the end-to-end benchmark (perfbench/run.py is the
// other half): runs ONE workload once, in this process, through the runtime's
// public entry points (RunService, RunWorkload, RunIngest) and prints one JSON
// object of raw measurements on its last stdout line. Statistics, percentile
// guards, output checks and the final report live in run.py.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --dump <path> [--trace-out <path>]
//
// setup_ns is the time from process start to the first measured operation,
// load phase included. --dump is where the VM writes its metrics snapshot at
// teardown (the only exact end-of-run view of RunIngest's VM).
// --trace-out enables the in-program trace points plus this file's own spans
// and writes them as chrome-trace JSON when the run ends.
//
// Options are set here explicitly (the VM fields this benchmark does not set
// keep their compiled-in defaults); no *::FromEnv reader is called.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/gc/gc_metrics.h"
#include "src/service/open_loop.h"
#include "src/util/clock.h"
#include "src/util/metrics_registry.h"
#include "src/util/random.h"
#include "src/util/trace.h"
#include "src/workloads/driver.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/marketdata/pipeline.h"
#include "src/workloads/textindex.h"

namespace {

using namespace rolp;

const uint64_t kProcessStartNs = NowNs();

// Workload constants. Rates and counts are per measured second so a run does
// fixed work for a given --seconds.
constexpr double kKvRateRps = 20000.0;
constexpr int kKvWorkers = 2;
// Closed-loop ops on the set-up thread before measurement: enough GC cycles
// for the profiler's first inferences (every 16 cycles) to have run.
constexpr uint64_t kKvLoadOps = 160000;
constexpr uint64_t kLuceneOpsPerSecond = 130000;
constexpr uint64_t kLuceneLoadOps = 30000;
constexpr double kIngestRateEps = 100000.0;
// RunIngest does not expose when its schedule starts, so its set-up is timed
// on a probe: a RunIngest of kIngestProbeEvents events whose wall time, minus
// the schedule and RunIngest's 2 ms lead-in, is the VM boot, book build and
// compile (plus teardown).
constexpr uint64_t kIngestProbeEvents = 100;
constexpr uint64_t kIngestLeadInNs = 2 * 1000 * 1000;
// Leading share of the schedule excluded from the jitter statistics: the
// ingest load phase.
constexpr double kIngestWarmupFraction = 0.2;
// Load-phase op indices live far above anything the measured phase hands out.
constexpr uint64_t kLoadOpBase = 1ull << 62;
// In-program trace ring per thread (48-byte events): a 60 s run of any
// workload records well under this per thread; overwrites are reported.
constexpr size_t kTraceEventsPerThread = 1u << 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string dump;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<kv-rolp-open|kv-g1-open|lucene-cms-closed|ingest-zgc-open> --seed <n> "
               "--seconds <s> --dump <path> [--trace-out <path>]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string key = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + key).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) Usage("bad --seconds");
    } else if (key == "--dump") {
      a.dump = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload.empty() || a.dump.empty()) {
    Usage("--workload and --dump are required");
  }
  return a;
}

// --- JSON output ------------------------------------------------------------

class JsonOut {
 public:
  void Key(const char* k) {
    Sep();
    out_ << '"' << k << "\":";
  }
  void U(const char* k, uint64_t v) {
    Key(k);
    out_ << v;
  }
  void D(const char* k, double v) {
    Key(k);
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
  }
  void S(const char* k, const std::string& v) {
    Key(k);
    out_ << '"' << v << '"';
  }
  void B(const char* k, bool v) {
    Key(k);
    out_ << (v ? "true" : "false");
  }
  // Embeds a JSON document (the metrics registry's, which ends in '\n').
  void Raw(const char* k, std::string json) {
    while (!json.empty() && std::isspace(static_cast<unsigned char>(json.back()))) {
      json.pop_back();
    }
    Key(k);
    out_ << (json.empty() ? "null" : json);
  }
  void Open(const char* k) {
    if (k != nullptr) {
      Key(k);
    } else {
      Sep();
    }
    out_ << '{';
    first_ = true;
  }
  void OpenArray(const char* k) {
    Key(k);
    out_ << '[';
    first_ = true;
  }
  void Close() {
    out_ << '}';
    first_ = false;
  }
  void CloseArray() {
    out_ << ']';
    first_ = false;
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// Exact nearest-rank percentiles over raw samples (ns). run.py decides which
// of them may be printed (at least ten samples beyond the rank).
void EmitDistribution(JsonOut& j, const char* key, std::vector<uint64_t> v) {
  j.Open(key);
  j.U("n", v.size());
  if (!v.empty()) {
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (uint64_t x : v) sum += static_cast<double>(x);
    j.D("mean_ns", sum / static_cast<double>(v.size()));
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
      size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
      rank = std::clamp<size_t>(rank, 1, v.size());
      char name[32];
      std::snprintf(name, sizeof(name), "p%g_ns", p);
      j.U(name, v[rank - 1]);
    }
    j.U("max_ns", v.back());
  }
  j.Close();
}

void EmitPauses(JsonOut& j, const std::vector<PauseRecord>& pauses) {
  j.OpenArray("pauses");
  for (const PauseRecord& p : pauses) {
    j.Open(nullptr);
    j.S("kind", PauseKindName(p.kind));
    j.U("start_ns", p.start_ns);
    j.U("dur_ns", p.duration_ns);
    j.U("copied", p.bytes_copied);
    j.Close();
  }
  j.CloseArray();
}

void EmitRunResult(JsonOut& j, const RunResult& r) {
  j.Open("vm");
  j.U("run_start_ns", r.run_start_ns);
  j.U("max_used_bytes", r.max_used_bytes);
  j.U("total_allocated_bytes", r.total_allocated_bytes);
  j.U("instrumented_call_sites", r.instrumented_call_sites);
  j.U("tracked_call_sites", r.tracked_call_sites);
  j.U("first_decision_cycle", r.first_decision_cycle);
  j.U("survivor_tracking_toggles", r.survivor_tracking_toggles);
  j.Close();
  EmitPauses(j, r.pauses);
}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void BenchSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  Trace::EmitComplete("bench", name, start_ns, end_ns - start_ns);
}

// --- Timed wrapper ----------------------------------------------------------

// Wraps a workload so the benchmark times Setup (plus a closed-loop load
// phase on the set-up thread) and every Op from outside the runtime. Per-op
// start/end stamps are kept in memory, indexed by op_index, which the
// open-loop harness sets to the request id and the closed-loop driver to a
// dense 0..max_ops-1 range on one mutator.
class TimedWorkload : public Workload {
 public:
  TimedWorkload(Workload& inner, uint64_t load_ops, size_t max_ops)
      : inner_(inner), load_ops_(load_ops), start_(max_ops, 0), end_(max_ops, 0) {}

  std::string name() const override { return inner_.name(); }
  void ConfigureFilter(PackageFilter* filter) const override {
    inner_.ConfigureFilter(filter);
  }

  void Setup(VM& vm, RuntimeThread& t) override {
    uint64_t t0 = NowNs();
    inner_.Setup(vm, t);
    uint64_t t1 = NowNs();
    for (uint64_t i = 0; i < load_ops_; i++) {
      inner_.Op(t, kLoadOpBase + i);
      t.Poll();
    }
    setup_end_ns_ = NowNs();
    BenchSpan("bench.workload_setup", t0, t1);
    BenchSpan("bench.load_phase", t1, setup_end_ns_);
    // Counter baseline at the start of measurement (gauges are cumulative
    // over the VM's life, so per-layer figures are end minus this).
    metrics_at_start_ = MetricsRegistry::Instance().ToJson();
  }

  void Op(RuntimeThread& t, uint64_t op_index) override {
    uint64_t s = NowNs();
    inner_.Op(t, op_index);
    uint64_t e = NowNs();
    if (op_index < start_.size()) {
      start_[op_index] = s;
      end_[op_index] = e;
    } else {
      out_of_range_.fetch_add(1, std::memory_order_relaxed);
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
  }

  void Teardown() override { inner_.Teardown(); }

  uint64_t setup_end_ns() const { return setup_end_ns_; }
  const std::string& metrics_at_start() const { return metrics_at_start_; }
  const std::vector<uint64_t>& starts() const { return start_; }
  const std::vector<uint64_t>& ends() const { return end_; }
  uint64_t executed() const { return executed_.load(); }
  uint64_t out_of_range() const { return out_of_range_.load(); }

 private:
  Workload& inner_;
  uint64_t load_ops_;
  uint64_t setup_end_ns_ = 0;
  std::string metrics_at_start_;
  std::vector<uint64_t> start_;
  std::vector<uint64_t> end_;
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> out_of_range_{0};
};

// Mean op time minus the part of it that overlaps a GC pause (the mutator's
// own work). Pauses are disjoint and sorted by start.
double OpSelfMeanNs(const std::vector<uint64_t>& starts, const std::vector<uint64_t>& ends,
                    const std::vector<PauseRecord>& pauses) {
  double total = 0.0;
  uint64_t n = 0;
  for (size_t i = 0; i < starts.size(); i++) {
    uint64_t s = starts[i], e = ends[i];
    if (e == 0) continue;
    uint64_t self = e - s;
    auto it = std::upper_bound(pauses.begin(), pauses.end(), e,
                               [](uint64_t v, const PauseRecord& p) { return v < p.start_ns; });
    while (it != pauses.begin()) {
      --it;
      uint64_t ps = it->start_ns, pe = it->start_ns + it->duration_ns;
      if (pe <= s) break;
      uint64_t overlap = std::min(e, pe) - std::max(s, ps);
      self -= std::min(self, overlap);
    }
    total += static_cast<double>(self);
    n++;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

VmConfig BaseVmConfig(GcKind gc, uint64_t seed) {
  VmConfig cfg;
  cfg.heap_mb = 96;
  cfg.region_kb = 1024;
  // Scaled-down heap: a small young generation keeps middle-lived data alive
  // across several collections, as at production scale.
  cfg.young_fraction = 0.10;
  cfg.gc = gc;
  cfg.gc_config.num_workers = 2;
  cfg.gc_config.concurrent_evac = false;
  cfg.rolp.inference_period = 16;  // the paper's cadence
  cfg.rolp.auto_survivor_tracking = true;
  cfg.jit.hot_threshold = 100;
  cfg.osr_corruption_rate = 0.0;
  cfg.seed = seed;
  return cfg;
}

// --- kv-*-open: open-loop kvstore under RunService --------------------------

KvStoreOptions KvOptions(uint64_t seed) {
  KvStoreOptions kv;
  kv.write_fraction = 0.75;  // cassandra-wi
  kv.num_keys = 40000;
  kv.value_bytes = 512;
  kv.memtable_flush_rows = 24000;
  kv.request_scratch_bytes = 2048;
  kv.max_sstables = 6;
  kv.seed = seed;
  return kv;
}

ServiceOptions KvServiceOptions(uint64_t seed, double seconds) {
  ServiceOptions o;
  o.workers = kKvWorkers;
  o.duration_s = seconds;
  o.warmup_s = 0.0;
  o.rate_rps = kKvRateRps;
  o.overload_factor = 2.0;  // unused: the rate is fixed
  o.calibrate_s = 0.0;
  o.poisson_arrivals = true;
  o.write_fraction = 0.75;
  o.drain_grace_s = 2.0;
  o.seed = seed;
  o.use_workload_filter = true;
  // Admission headroom: every request is executed and charged its lateness.
  // With a 200 ms deadline and a 512-deep queue, the admission controller
  // rejected a host-dependent handful of arrivals after each long pause (its
  // service-time average then includes the ops that straddled the pause), so
  // the failed count differed between runs of the same seed. A 60 s deadline
  // and a queue deeper than any run's arrivals cannot reject, shed or miss.
  o.admission.queue_capacity = 1u << 22;
  o.admission.deadline_ms = 60 * 1000;
  o.admission.init_service_us = 200.0;
  o.retry.max_attempts = 3;
  o.retry.base_backoff_ms = 10;
  o.retry.max_backoff_ms = 200;
  o.retry.jitter = 0.5;
  o.retry_ratio = 0.1;
  o.slo = SloThresholds{};
  o.pacing.mode = PacingMode::kAbsoluteHybrid;
  o.pacing.spin_slack_ns = 50 * 1000;
  return o;
}

// Arrival offsets (ns after the run start) of the open-loop schedule for
// these options: the same seeded Poisson stream RunService's generator draws
// (two SplitMix64 draws per fresh arrival: request class, then gap). run.py
// checks the offered count against it, and lateness is charged from it.
std::vector<uint64_t> KvSchedule(const ServiceOptions& o) {
  std::vector<uint64_t> offsets;
  uint64_t rng = o.seed ^ 0x9e3779b97f4a7c15ULL;
  double mean_gap_ns = 1e9 / o.rate_rps;
  uint64_t end = static_cast<uint64_t>(o.duration_s * 1e9);
  uint64_t next = 0;
  while (next < end) {
    offsets.push_back(next);
    (void)SplitMix64(&rng);  // request class
    double u2 = static_cast<double>(SplitMix64(&rng) >> 11) * 0x1.0p-53;
    double gap = o.poisson_arrivals ? -std::log(1.0 - u2) * mean_gap_ns : mean_gap_ns;
    next += std::max<uint64_t>(static_cast<uint64_t>(gap), 1);
  }
  return offsets;
}

void RunKv(const Args& a, GcKind gc, JsonOut& j) {
  KvStoreWorkload kv(KvOptions(a.seed));
  ServiceOptions so = KvServiceOptions(a.seed, a.seconds);
  std::vector<uint64_t> schedule = KvSchedule(so);
  VmConfig cfg = BaseVmConfig(gc, a.seed);

  TimedWorkload timed(kv, kKvLoadOps, schedule.size());
  uint64_t call = NowNs();
  ServiceResult r = RunService(cfg, timed, so);
  BenchSpan("bench.run_service", call, NowNs());

  uint64_t start = r.run.run_start_ns;
  std::vector<uint64_t> lateness;
  std::vector<uint64_t> exec;
  lateness.reserve(schedule.size());
  uint64_t early = 0;  // executions before their scheduled arrival: schedule mismatch
  for (size_t id = 0; id < schedule.size(); id++) {
    uint64_t e = timed.ends()[id];
    if (e == 0) continue;
    uint64_t due = start + schedule[id];
    if (timed.starts()[id] < due) early++;
    lateness.push_back(e > due ? e - due : 0);
    exec.push_back(e - timed.starts()[id]);
  }

  j.U("setup_ns", timed.setup_end_ns() - kProcessStartNs);
  j.U("measured_ns", static_cast<uint64_t>(r.run.measured_s * 1e9));
  j.U("scheduled", schedule.size());
  j.U("attempted", r.offered);
  j.U("ok", r.completed_ok);
  j.Open("service");
  j.U("offered", r.offered);
  j.U("rejected", r.rejected);
  j.U("shed_queue_full", r.shed_queue_full);
  j.U("shed_deadline", r.shed_deadline);
  j.U("shed_drain", r.shed_drain);
  j.U("completed_ok", r.completed_ok);
  j.U("deadline_miss", r.deadline_miss);
  j.U("slo_total", r.slo.total);
  j.D("sched_lag_ms_mean", r.slo.seg_sched_to_enqueue.mean_ms);
  j.D("queue_wait_ms_mean", r.slo.seg_queue_wait.mean_ms);
  j.D("queue_wait_ms_p99", r.slo.seg_queue_wait.p99_ms);
  j.U("queue_wait_n", r.slo.seg_queue_wait.count);
  j.D("execute_ms_mean", r.slo.seg_execute.mean_ms);
  j.Close();
  j.Open("wrapper");
  j.U("executed", timed.executed());
  j.U("out_of_range", timed.out_of_range());
  j.U("completed_ids", lateness.size());
  j.U("early", early);
  j.Close();
  j.Open("work");
  j.U("kvstore.flushes", kv.flushes());
  j.U("kvstore.compactions", kv.compactions());
  j.Close();
  EmitDistribution(j, "latency", std::move(lateness));
  EmitDistribution(j, "op", std::move(exec));
  EmitRunResult(j, r.run);
  if (!a.trace_out.empty()) {
    j.D("op_self_mean_ns", OpSelfMeanNs(timed.starts(), timed.ends(), r.run.pauses));
  }
  j.Raw("metrics_start", timed.metrics_at_start());
}

// --- lucene-cms-closed: fixed op count, one mutator, under RunWorkload ------

void RunLucene(const Args& a, JsonOut& j) {
  TextIndexOptions ti;
  ti.vocab = 20000;
  ti.terms_per_doc = 60;
  ti.write_fraction = 0.80;
  ti.docs_per_segment = 4000;
  ti.max_segments = 8;
  ti.scratch_bytes = 4096;
  ti.seed = a.seed;
  TextIndexWorkload lucene(ti);
  VmConfig cfg = BaseVmConfig(GcKind::kCms, a.seed);

  uint64_t ops = static_cast<uint64_t>(a.seconds * static_cast<double>(kLuceneOpsPerSecond));
  DriverOptions d;
  d.threads = 1;
  d.duration_s = 45.0;  // safety stop only; the run ends at max_ops
  d.warmup_s = 0.0;
  d.max_ops = ops;
  d.use_workload_filter = true;

  TimedWorkload timed(lucene, kLuceneLoadOps, ops);
  uint64_t call = NowNs();
  RunResult r = RunWorkload(cfg, timed, d);
  BenchSpan("bench.run_workload", call, NowNs());
  j.U("setup_ns", timed.setup_end_ns() - kProcessStartNs);

  std::vector<uint64_t> op_ns;
  op_ns.reserve(ops);
  for (size_t i = 0; i < timed.ends().size(); i++) {
    if (timed.ends()[i] != 0) op_ns.push_back(timed.ends()[i] - timed.starts()[i]);
  }
  j.U("measured_ns", static_cast<uint64_t>(r.measured_s * 1e9));
  j.U("scheduled", ops);
  j.U("attempted", ops);
  j.U("ok", r.ops);
  j.Open("wrapper");
  j.U("executed", timed.executed());
  j.U("out_of_range", timed.out_of_range());
  j.U("completed_ids", op_ns.size());
  j.Close();
  j.Open("work");
  j.U("textindex.segments_sealed", lucene.segments_sealed());
  j.U("textindex.merges", lucene.merges());
  j.Close();
  // Closed loop: a request is due when the previous one completes, so its
  // latency is the op time.
  EmitDistribution(j, "op", std::move(op_ns));
  EmitRunResult(j, r);
  if (!a.trace_out.empty()) {
    j.D("op_self_mean_ns", OpSelfMeanNs(timed.starts(), timed.ends(), r.pauses));
  }
  j.Raw("metrics_start", timed.metrics_at_start());
}

// --- ingest-zgc-open: market-data pipeline, ZGC arm, fused ------------------

marketdata::IngestOptions IngestOpts(uint64_t seed, uint64_t events, double rate) {
  marketdata::IngestOptions o;
  o.rate_eps = rate;
  o.events = events;
  o.warmup_fraction = kIngestWarmupFraction;
  o.ring_capacity = 4096;
  o.heap_mb = 96;
  o.seed = seed;
  // Threaded mode spins three stage threads next to the GC workers; fused
  // keeps the run within the benchmark's four-thread budget.
  o.mode = marketdata::PipelineMode::kFused;
  o.book.symbols = 16;
  o.book.price_levels = 256;
  o.book.order_buckets = 1 << 15;
  o.book.tick_bytes = 512;
  o.pacing.mode = PacingMode::kAbsoluteHybrid;
  o.pacing.spin_slack_ns = 50 * 1000;
  return o;
}

void RunIngestWorkload(const Args& a, JsonOut& j) {
  using namespace marketdata;
  uint64_t probe_call = NowNs();
  IngestResult probe =
      RunIngest(ArmKind::kZgc, IngestOpts(a.seed, kIngestProbeEvents, kIngestRateEps));
  uint64_t probe_wall = NowNs() - probe_call;
  uint64_t probe_schedule_ns = static_cast<uint64_t>(
      static_cast<double>(kIngestProbeEvents) / kIngestRateEps * 1e9) + kIngestLeadInNs;
  uint64_t boot = probe_wall > probe_schedule_ns ? probe_wall - probe_schedule_ns : 0;

  uint64_t events = static_cast<uint64_t>(a.seconds * kIngestRateEps);
  IngestOptions o = IngestOpts(a.seed, events, kIngestRateEps);
  uint64_t warmup_ns = static_cast<uint64_t>(
      static_cast<double>(events) * o.warmup_fraction / kIngestRateEps * 1e9);
  // Process start to the first measured event: time before the call, VM
  // boot, lead-in and the warm-up share of the schedule.
  j.U("setup_ns", probe_call - kProcessStartNs + boot + kIngestLeadInNs + warmup_ns);
  uint64_t call = NowNs();
  IngestResult r = RunIngest(ArmKind::kZgc, o);
  uint64_t done = NowNs();
  BenchSpan("bench.run_ingest", call, done);
  // The pooled arm replays the identical feed with no VM; its book checksum
  // is the reference. It runs unpaced: the checksum depends only on the feed.
  IngestResult ref = RunIngest(ArmKind::kPooled, IngestOpts(a.seed, events, 1e9));

  j.U("measured_ns", done - call);
  j.U("scheduled", r.scheduled);
  j.U("attempted", r.scheduled);
  j.U("ok", r.applied);
  j.Open("ingest");
  j.B("survived", r.survived);
  j.U("parsed", r.parsed);
  j.U("parse_drops", r.parse_drops);
  j.U("applied", r.applied);
  j.U("analyzed", r.analyzed);
  j.U("measured", r.measured);
  j.U("p50_ns", r.p50_ns);
  j.U("p99_ns", r.p99_ns);
  j.U("p999_ns", r.p999_ns);
  j.D("alloc_ns_per_event", r.alloc_ns_per_event);
  j.U("checksum", r.book.checksum);
  j.U("reference_checksum", ref.book.checksum);
  j.B("reference_survived", ref.survived);
  j.B("probe_survived", probe.survived);
  j.Close();
}

}  // namespace

int main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  // Read by the VM constructor: the VM writes its metrics snapshot there when
  // it is torn down (for RunIngest, the only exact end-of-run view).
  setenv("ROLP_METRICS_DUMP", a.dump.c_str(), 1);
  if (!a.trace_out.empty()) {
    Trace::Enable(kTraceEventsPerThread);
  }

  JsonOut j;
  j.Open(nullptr);
  j.S("workload", a.workload);
  j.U("seed", a.seed);
  if (a.workload == "kv-rolp-open") {
    RunKv(a, GcKind::kRolp, j);
  } else if (a.workload == "kv-g1-open") {
    RunKv(a, GcKind::kG1, j);
  } else if (a.workload == "lucene-cms-closed") {
    RunLucene(a, j);
  } else if (a.workload == "ingest-zgc-open") {
    RunIngestWorkload(a, j);
  } else {
    Usage(("unknown workload " + a.workload).c_str());
  }
  j.U("rss_peak_bytes", PeakRssBytes());
  j.Raw("metrics_end", ReadFile(a.dump));
  if (!a.trace_out.empty()) {
    j.U("trace_events_recorded", Trace::events_recorded());
    Trace::Disable();
    Trace::WriteJson(a.trace_out);
  }
  j.Close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
