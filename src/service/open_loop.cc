#include "src/service/open_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <deque>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "src/service/sharded.h"
#include "src/util/clock.h"
#include "src/util/env.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics_registry.h"
#include "src/util/proc_stats.h"
#include "src/util/random.h"
#include "src/util/trace.h"

namespace rolp {

namespace {

struct Request {
  uint64_t id = 0;
  uint64_t scheduled_ns = 0;  // planned arrival; never moves across retries
  uint64_t ready_ns = 0;      // when this attempt becomes issueable
  uint64_t enqueue_ns = 0;    // 0 until this attempt passes the front door
  uint64_t deadline_ns = 0;   // per-attempt deadline
  uint64_t op_index = 0;
  uint32_t attempt = 1;
  uint8_t klass = 0;
  uint16_t shard = 0;         // pinned at routing time; retries stay on it
};

struct RetryLater {
  bool operator()(const Request& a, const Request& b) const {
    return a.ready_ns > b.ready_ns;
  }
};

// The attempt's timeline so far; callers stamp the later segments.
RequestTimeline TimelineOf(const Request& req) {
  RequestTimeline tl;
  tl.id = req.id;
  tl.scheduled_ns = req.scheduled_ns;
  tl.enqueue_ns = req.enqueue_ns;
  tl.attempts = req.attempt;
  return tl;
}

// One shard: its VM, workload, admission, queue, retry heap and budgets, SLO
// sub-window, counters and workers. Shards share only the generator and the
// CPU, so N shards contend on nothing a single-VM run would not.
struct Shard {
  Shard(Workload* w, const AdmissionConfig& config) : workload(w), admission(config) {}

  Workload* workload;
  std::unique_ptr<VM> vm;
  AdmissionController admission;
  std::unique_ptr<SloReporter> reporter;  // created at the run's start_ns
  // deque: RetryBudget holds a lock and atomics, so it is not movable.
  std::deque<RetryBudget> budgets;

  SpinLock queue_lock;
  std::deque<Request> queue;
  std::atomic<size_t> depth{0};
  // Idle wake (DESIGN.md §13.2): idle workers block on `wake`; a push bumps
  // it and notifies only while `sleepers` is non-zero.
  std::atomic<uint32_t> wake{0};
  std::atomic<uint32_t> sleepers{0};

  SpinLock retry_lock;
  std::priority_queue<Request, std::vector<Request>, RetryLater> retries;

  std::atomic<uint64_t> offered{0};  // fresh arrivals routed here
  std::atomic<uint64_t> shed_queue_full{0};
  std::atomic<uint64_t> shed_deadline{0};
  std::atomic<uint64_t> shed_governor{0};
  std::atomic<uint64_t> completed_ok{0};
  std::atomic<uint64_t> deadline_miss{0};
  std::atomic<uint64_t> retries_granted{0};
  std::atomic<uint64_t> retry_denied{0};
  std::atomic<uint64_t> idle_waits{0};  // blocking waits by this shard's workers
  uint64_t shed_drain = 0;  // written after the workers have joined

  std::vector<std::thread> workers;
};

// Closed-loop capacity probe: `workers` threads spin Op back-to-back for
// calibrate_s; the measured rate is what this VM+workload can actually do, so
// overload_factor x capacity is over-capacity by construction.
double CalibrateClosedLoop(VM& vm, Workload& workload, const ServiceOptions& options) {
  std::atomic<uint64_t> ops{0};
  uint64_t start = NowNs();
  uint64_t end = start + static_cast<uint64_t>(options.calibrate_s * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(options.workers);
  for (int i = 0; i < options.workers; i++) {
    threads.emplace_back([&, i] {
      RuntimeThread* t = vm.AttachThread();
      // High op_index base so calibration keys never collide with the ids the
      // open-loop phase hands out.
      uint64_t op = (0x100ULL + static_cast<uint64_t>(i)) << 40;
      while (NowNs() < end) {
        workload.Op(*t, op++);
        ops.fetch_add(1, std::memory_order_relaxed);
        t->Poll();
      }
      vm.DetachThread(t);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return elapsed_s > 0 ? static_cast<double>(ops.load()) / elapsed_s : 0.0;
}

// Load has stopped: collects each shard's VM once so garbage regions reach
// the free lists, then samples process RSS for 2 x `uncommit_ms` while the
// uncommit sweepers hand idle regions back to the OS. With `uncommit_ms` <= 0
// only the load-stop RSS is read.
void WatchRssSettle(const std::vector<std::unique_ptr<Shard>>& shards,
                    int64_t uncommit_ms, ShardedServiceResult* result) {
  result->rss_load_bytes = CurrentRssBytes();
  result->rss_settled_bytes = result->rss_load_bytes;
  if (uncommit_ms <= 0) {
    return;
  }
  for (auto& sh : shards) {
    RuntimeThread* t = sh->vm->AttachThread();
    sh->vm->collector().CollectFull(&t->gc_context());
    sh->vm->DetachThread(t);
  }
  result->rss_load_bytes = CurrentRssBytes();
  result->rss_settled_bytes = result->rss_load_bytes;
  uint64_t watch_end = NowNs() + static_cast<uint64_t>(2 * uncommit_ms) * 1000000ull;
  int64_t poll_ms = std::max<int64_t>(uncommit_ms / 8, 10);
  while (NowNs() < watch_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    result->rss_settled_bytes = std::min(result->rss_settled_bytes, CurrentRssBytes());
  }
}

// The open-loop engine behind RunService (one shard on the caller's
// workload, `uncommit_ms` 0) and RunShardedService (one shard per
// factory-built workload). RunService returns the one shard's result and
// ignores the merged fields.
ShardedServiceResult RunShards(const VmConfig& vm_config,
                               const std::vector<Workload*>& workloads,
                               const ServiceOptions& options, int64_t uncommit_ms) {
  const int nshards = static_cast<int>(workloads.size());
  // Shard labels (metric prefixes, verdict names) only where N shards would
  // otherwise collide: a one-shard run publishes the same unprefixed gc.*,
  // heap.*, vm.* and service.* names as a plain VM.
  const bool multi = nshards > 1;
  auto label = [](int s) { return "shard" + std::to_string(s); };

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(nshards);
  for (int s = 0; s < nshards; s++) {
    auto sh = std::make_unique<Shard>(workloads[s], options.admission);
    VmConfig cfg = vm_config;
    if (multi) {
      cfg.metrics_prefix = label(s) + ".";
    }
    cfg.seed = vm_config.seed + static_cast<uint64_t>(s);
    if (options.use_workload_filter && cfg.gc == GcKind::kRolp) {
      sh->workload->ConfigureFilter(&cfg.filter);
    }
    sh->vm = std::make_unique<VM>(cfg);
    {
      ROLP_TRACE_SCOPE("workload", "workload.setup");
      RuntimeThread* setup_thread = sh->vm->AttachThread();
      sh->workload->Setup(*sh->vm, *setup_thread);
      sh->vm->DetachThread(setup_thread);
    }
    shards.push_back(std::move(sh));
  }

  ShardedServiceResult result;
  // Calibrate against shard 0 and scale by the shard count: N shards offer N
  // times one shard's capacity, and the router spreads keys near-uniformly.
  double rate = options.rate_rps;
  if (rate <= 0.0) {
    result.calibrated_rps =
        CalibrateClosedLoop(*shards[0]->vm, *shards[0]->workload, options);
    rate = std::max(1.0, result.calibrated_rps * options.overload_factor * nshards);
  }
  result.offered_rps = rate;
  for (auto& sh : shards) {
    for (int i = 0; i < kNumRequestClasses; i++) {
      // Burst: let the budget bank up to ~1 s of this shard's retry allowance.
      sh->budgets.emplace_back(options.retry_ratio,
                               std::max(8.0, options.retry_ratio * rate / nshards));
    }
  }
  ConsistentHashRouter router(nshards);

  ScopedTrace run_scope("workload", "workload.run");
  uint64_t start_ns = NowNs();
  uint64_t warmup_end_ns = start_ns + static_cast<uint64_t>(options.warmup_s * 1e9);
  uint64_t gen_end_ns = start_ns + static_cast<uint64_t>(options.duration_s * 1e9);
  // All reporters share one epoch, so their rings merge slot-by-slot.
  for (auto& sh : shards) {
    sh->reporter = std::make_unique<SloReporter>(start_ns);
  }
  std::atomic<bool> stop{false};

  // Shed/throttle/degrade activity is visible live through the registry, so
  // periodic ROLP_METRICS_DUMP snapshots (and the chaos engine) can watch the
  // overload unfold.
  ScopedMetrics sm;
  auto count = [](const std::atomic<uint64_t>& c) {
    return static_cast<double>(c.load(std::memory_order_relaxed));
  };
  if (multi) {
    sm.Gauge("service.offered", [&shards, count] {
      double total = 0;
      for (auto& sh : shards) {
        total += count(sh->offered);
      }
      return total;
    });
  }
  for (int s = 0; s < nshards; s++) {
    Shard* sh = shards[s].get();
    if (multi) {
      sm.set_prefix(label(s) + ".");
    }
    sm.Gauge("service.offered", [sh, count] { return count(sh->offered); });
    sm.Gauge("service.queue_depth", [sh] {
      return static_cast<double>(sh->depth.load(std::memory_order_relaxed));
    });
    sm.Gauge("service.shed_queue_full", [sh, count] { return count(sh->shed_queue_full); });
    sm.Gauge("service.shed_deadline", [sh, count] { return count(sh->shed_deadline); });
    sm.Gauge("service.shed_governor", [sh, count] { return count(sh->shed_governor); });
    sm.Gauge("service.completed_ok", [sh, count] { return count(sh->completed_ok); });
    sm.Gauge("service.deadline_miss", [sh, count] { return count(sh->deadline_miss); });
    sm.Gauge("service.retries", [sh, count] { return count(sh->retries_granted); });
    sm.Gauge("service.idle_waits", [sh, count] { return count(sh->idle_waits); });
    sm.Gauge("service.admitted",
             [sh] { return static_cast<double>(sh->admission.admitted()); });
    sm.Gauge("service.rejected",
             [sh] { return static_cast<double>(sh->admission.rejected()); });
    sm.Gauge("service.ewma_service_ns",
             [sh] { return static_cast<double>(sh->admission.ewma_service_ns()); });
  }

  uint64_t deadline_budget_ns = options.admission.deadline_ms * 1000 * 1000;

  auto worker_body = [&](Shard* sh, int worker_index) {
    VM& vm = *sh->vm;
    RuntimeThread* t = vm.AttachThread();
    uint64_t rng_state = options.seed ^ (0xd1b54a32d192ed03ULL * (worker_index + 1));
    while (!stop.load(std::memory_order_relaxed)) {
      Request req;
      bool got = false;
      LockAtSafepoint(sh->queue_lock, *t);
      if (!sh->queue.empty()) {
        req = sh->queue.front();
        sh->queue.pop_front();
        sh->depth.fetch_sub(1, std::memory_order_relaxed);
        got = true;
      }
      sh->queue_lock.unlock();
      if (!got) {
        // Idle wait in a safe region, so a pause never waits on a blocked
        // worker. Read the word, then announce the sleep, then re-check: a
        // push either sees the sleeper and bumps the word, or lands before
        // the re-check (both sides seq_cst), so no arrival is left unserved.
        SafepointManager::ScopedSafeRegion safe(&vm.safepoints(), &t->gc_context());
        uint32_t seen = sh->wake.load();
        sh->sleepers.fetch_add(1);
        if (sh->depth.load() == 0 && !stop.load()) {
          sh->idle_waits.fetch_add(1, std::memory_order_relaxed);
          sh->wake.wait(seen);
        }
        sh->sleepers.fetch_sub(1);
        continue;
      }
      uint64_t dq = NowNs();
      if (dq > req.deadline_ns) {
        // Expired in the queue: drop without executing. The retry budget
        // decides whether the client's backoff retry is worth scheduling.
        bool retry = req.attempt < options.retry.max_attempts &&
                     sh->budgets[req.klass].TryAcquire();
        if (retry) {
          Request again = req;
          again.attempt++;
          again.ready_ns = dq + options.retry.BackoffNs(req.attempt, &rng_state);
          again.enqueue_ns = 0;
          again.deadline_ns = again.ready_ns + deadline_budget_ns;
          {
            std::lock_guard<SpinLock> guard(sh->retry_lock);
            sh->retries.push(again);
          }
          sh->retries_granted.fetch_add(1, std::memory_order_relaxed);
          sh->reporter->CountRetry();
          ROLP_TRACE_INSTANT("service", "service.retry", req.id);
        } else {
          sh->retry_denied.fetch_add(1, std::memory_order_relaxed);
          sh->shed_deadline.fetch_add(1, std::memory_order_relaxed);
          RequestTimeline tl = TimelineOf(req);
          tl.dequeue_ns = dq;
          tl.respond_ns = dq;
          sh->reporter->Record(tl, RequestOutcome::kShed);
          ROLP_TRACE_INSTANT("service", "service.shed", req.id);
        }
        continue;
      }
      sh->workload->Op(*t, req.op_index);
      // The harness has no separate send step: the response leaves when the
      // operation finishes, so one clock read stamps both.
      uint64_t ex = NowNs();
      sh->admission.ObserveService(ex - dq);
      RequestTimeline tl = TimelineOf(req);
      tl.dequeue_ns = dq;
      tl.execute_ns = ex;
      tl.respond_ns = ex;
      if (ex > req.deadline_ns) {
        sh->deadline_miss.fetch_add(1, std::memory_order_relaxed);
        sh->reporter->Record(tl, RequestOutcome::kDeadlineMiss);
      } else {
        sh->completed_ok.fetch_add(1, std::memory_order_relaxed);
        sh->reporter->Record(tl, RequestOutcome::kOk);
      }
      t->Poll();
    }
    vm.DetachThread(t);
  };

  auto generator_body = [&] {
    // One generator for all shards, unattached on purpose: it must never be
    // parked by any shard's safepoint, or the arrival schedule would
    // coordinate with GC pauses — the exact omission this harness exists to
    // avoid. Fresh arrivals route by consistent hash of the op key; retry
    // attempts stay on the shard that owns the key.
    uint64_t rng = options.seed ^ 0x9e3779b97f4a7c15ULL;
    double mean_gap_ns = 1e9 / rate;
    uint64_t next_arrival = start_ns;
    uint64_t next_id = 0;
    Pacer pacer(options.pacing);
    while (true) {
      uint64_t evt = next_arrival;
      Shard* retry_shard = nullptr;
      for (auto& sh : shards) {
        std::lock_guard<SpinLock> guard(sh->retry_lock);
        if (!sh->retries.empty() && sh->retries.top().ready_ns < evt) {
          evt = sh->retries.top().ready_ns;
          retry_shard = sh.get();
        }
      }
      if (evt >= gen_end_ns) {
        break;
      }
      uint64_t now = NowNs();
      if (evt > now) {
        // Absolute-deadline pacing (see pacer.h for the drift analysis of
        // the relative sleep this replaces). The wake target stays capped at
        // 1 ms out so a retry landing in the queue cannot be starved behind
        // a long inter-arrival gap; the cap wake is a coarse re-check
        // (precise=false — no spin), only the real arrival edge pays the
        // spin finish.
        uint64_t wake = std::min<uint64_t>(evt, now + 1000 * 1000);
        pacer.WaitUntil(wake, /*precise=*/wake == evt);
        continue;
      }
      Request req;
      if (retry_shard != nullptr) {
        std::lock_guard<SpinLock> guard(retry_shard->retry_lock);
        if (retry_shard->retries.empty()) {
          continue;  // raced with nothing in practice; be defensive
        }
        req = retry_shard->retries.top();
        retry_shard->retries.pop();
      } else {
        req.id = next_id++;
        req.scheduled_ns = next_arrival;
        req.ready_ns = next_arrival;
        req.deadline_ns = next_arrival + deadline_budget_ns;
        req.op_index = req.id;
        req.attempt = 1;
        req.shard = multi ? static_cast<uint16_t>(router.ShardFor(req.op_index)) : 0;
        // Two draws per fresh arrival, in this order: request class, then
        // gap. Callers that rebuild the schedule depend on it.
        double u = static_cast<double>(SplitMix64(&rng) >> 11) * 0x1.0p-53;
        req.klass = u < options.write_fraction
                        ? static_cast<uint8_t>(RequestClass::kWrite)
                        : static_cast<uint8_t>(RequestClass::kRead);
        Shard& home = *shards[req.shard];
        home.offered.fetch_add(1, std::memory_order_relaxed);
        home.budgets[req.klass].OnRequest();
        // Advance the schedule: fixed in advance, never a function of
        // completions. Falling behind real time only means issuing late with
        // the planned scheduled_ns — i.e. the lateness is charged.
        double u2 = static_cast<double>(SplitMix64(&rng) >> 11) * 0x1.0p-53;
        double gap = options.poisson_arrivals
                         ? -std::log(1.0 - u2) * mean_gap_ns
                         : mean_gap_ns;
        if (ROLP_FAULT_POINT("service.arrival.burst")) {
          gap = 0.0;  // injected burst: the next arrival lands immediately
        }
        next_arrival += std::max<uint64_t>(static_cast<uint64_t>(gap), 1);
      }
      Shard* sh = shards[req.shard].get();
      now = NowNs();
      req.enqueue_ns = now;
      size_t depth = sh->depth.load(std::memory_order_relaxed);
      bool queue_full = depth >= options.admission.queue_capacity ||
                        ROLP_FAULT_POINT("service.queue.full");
      bool governor_shed = sh->vm->heap().governor().level() >= PressureLevel::kShed;
      if (queue_full || governor_shed) {
        // Terminal shed at the front door; charged from the planned arrival.
        (queue_full ? sh->shed_queue_full : sh->shed_governor)
            .fetch_add(1, std::memory_order_relaxed);
        RequestTimeline tl = TimelineOf(req);
        tl.respond_ns = now;
        sh->reporter->Record(tl, RequestOutcome::kShed);
        ROLP_TRACE_INSTANT("service", "service.shed", req.id);
      } else if (ROLP_FAULT_POINT("service.admit.reject") ||
                 !sh->admission.Admit(depth, now, req.deadline_ns)) {
        RequestTimeline tl = TimelineOf(req);
        tl.respond_ns = now;
        sh->reporter->Record(tl, RequestOutcome::kRejected);
        ROLP_TRACE_INSTANT("service", "service.reject", req.id);
      } else {
        {
          std::lock_guard<SpinLock> guard(sh->queue_lock);
          sh->queue.push_back(req);
          sh->depth.fetch_add(1);
        }
        if (sh->sleepers.load() > 0) {
          sh->wake.fetch_add(1);
          sh->wake.notify_one();
        }
      }
    }
  };

  for (auto& sh : shards) {
    sh->workers.reserve(options.workers);
    for (int i = 0; i < options.workers; i++) {
      sh->workers.emplace_back(worker_body, sh.get(), i);
    }
  }
  std::thread generator(generator_body);
  generator.join();

  // Drain grace: let workers finish what is queued, then stop them and record
  // whatever is left as shed (those requests still get their lateness).
  auto total_depth = [&shards] {
    size_t d = 0;
    for (auto& sh : shards) {
      d += sh->depth.load(std::memory_order_relaxed);
    }
    return d;
  };
  uint64_t drain_end = NowNs() + static_cast<uint64_t>(options.drain_grace_s * 1e9);
  while (total_depth() > 0 && NowNs() < drain_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& sh : shards) {
    sh->wake.fetch_add(1);
    sh->wake.notify_all();
  }
  for (auto& sh : shards) {
    for (auto& th : sh->workers) {
      th.join();
    }
  }
  uint64_t end_ns = NowNs();
  for (auto& sh : shards) {
    std::lock_guard<SpinLock> guard(sh->queue_lock);
    std::lock_guard<SpinLock> retry_guard(sh->retry_lock);
    for (const Request& req : sh->queue) {
      RequestTimeline tl = TimelineOf(req);
      tl.respond_ns = end_ns;
      sh->reporter->Record(tl, RequestOutcome::kShed);
      sh->shed_drain++;
    }
    sh->queue.clear();
    sh->depth.store(0, std::memory_order_relaxed);
    for (; !sh->retries.empty(); sh->retries.pop()) {
      RequestTimeline tl = TimelineOf(sh->retries.top());
      tl.respond_ns = end_ns;
      sh->reporter->Record(tl, RequestOutcome::kShed);
      sh->shed_drain++;
    }
  }

  WatchRssSettle(shards, uncommit_ms, &result);

  const std::string collector = GcKindName(vm_config.gc);
  result.shards.resize(nshards);
  for (int s = 0; s < nshards; s++) {
    Shard& sh = *shards[s];
    ServiceResult& r = result.shards[s];
    r.run.workload = sh.workload->name();
    r.run.collector = collector;
    r.offered_rps = rate / nshards;
    r.calibrated_rps = result.calibrated_rps;
    r.offered = sh.offered.load();
    r.admitted = sh.admission.admitted();
    r.rejected = sh.admission.rejected();
    r.shed_queue_full = sh.shed_queue_full.load() + sh.shed_governor.load();
    r.shed_deadline = sh.shed_deadline.load();
    r.shed_drain = sh.shed_drain;
    r.completed_ok = sh.completed_ok.load();
    r.deadline_miss = sh.deadline_miss.load();
    r.retries = sh.retries_granted.load();
    r.retry_denied = sh.retry_denied.load();
    r.idle_waits = sh.idle_waits.load();

    HeapGovernor& governor = sh.vm->heap().governor();
    r.governor_max_level = static_cast<uint64_t>(governor.max_level());
    r.governor_transitions = governor.transitions();
    r.governor_gc_requests = governor.gc_requests();
    r.throttle_stalls = governor.throttle_stalls();

    // Reaching this line is the zero-abort proof: an aborting VM never returns.
    r.survived = true;
    SloReporter::Verdict verdict = sh.reporter->Evaluate(
        multi ? collector + "/" + label(s) : collector, options.slo, r.survived, end_ns);
    r.slo_pass = verdict.pass;
    r.verdict_json = verdict.json;
    r.slo = sh.reporter->Collect(end_ns);

    r.run.run_start_ns = start_ns;
    r.run.ops = r.completed_ok + r.deadline_miss;
    r.run.measured_s = static_cast<double>(end_ns - start_ns) / 1e9;
    if (r.run.measured_s > 0) {
      r.run.throughput = static_cast<double>(r.run.ops) / r.run.measured_s;
    }
    CollectVmStats(*sh.vm, warmup_end_ns, &r.run);
    result.offered += r.offered;
  }

  // Merge the per-shard sub-windows into one verdict. Shard 0's reporter takes
  // the others (its own sub-window result is already collected), so a
  // one-shard run allocates no second set of histograms.
  SloReporter& merged = *shards[0]->reporter;
  for (int s = 1; s < nshards; s++) {
    merged.MergeFrom(*shards[s]->reporter, end_ns);
  }
  result.survived = true;
  char extra[256];
  double rss_drop = result.rss_load_bytes > 0
                        ? 1.0 - static_cast<double>(result.rss_settled_bytes) /
                                    static_cast<double>(result.rss_load_bytes)
                        : 0.0;
  std::snprintf(extra, sizeof(extra),
                "\"shards\":%d,\"offered\":%" PRIu64 ",\"rss_load_bytes\":%" PRIu64
                ",\"rss_settled_bytes\":%" PRIu64 ",\"rss_drop\":%.4f",
                nshards, result.offered, result.rss_load_bytes, result.rss_settled_bytes,
                rss_drop);
  SloReporter::Verdict verdict =
      merged.Evaluate(collector, options.slo, result.survived, end_ns, extra);
  result.slo_pass = verdict.pass;
  result.verdict_json = verdict.json;
  result.slo = merged.Collect(end_ns);

  for (auto& sh : shards) {
    sh->workload->Teardown();
  }
  return result;
}

}  // namespace

ServiceOptions ServiceOptions::FromEnv() {
  ServiceOptions o;
  o.rate_rps = EnvDouble("ROLP_SERVICE_RATE", o.rate_rps);
  return o;
}

ServiceResult RunService(const VmConfig& vm_config, Workload& workload,
                         const ServiceOptions& options) {
  return std::move(RunShards(vm_config, {&workload}, options, /*uncommit_ms=*/0).shards[0]);
}

ShardedServiceResult RunShardedService(
    const VmConfig& vm_config,
    const std::function<std::unique_ptr<Workload>(int shard)>& factory,
    const ShardedServiceOptions& options) {
  // Owned here, outside the engine, so every workload outlives its shard's VM.
  std::vector<std::unique_ptr<Workload>> owned;
  std::vector<Workload*> workloads;
  for (int s = 0; s < std::max(1, options.shards); s++) {
    owned.push_back(factory(s));
    workloads.push_back(owned.back().get());
  }
  return RunShards(vm_config, workloads, options.service, options.uncommit_ms);
}

void PrintServiceReport(std::FILE* out, const ServiceResult& r) {
  const SloReporter::Snapshot& s = r.slo;
  std::fprintf(out,
               "service [%s/%s] offered=%" PRIu64 " (%.0f rps%s) admitted=%" PRIu64
               " rejected=%" PRIu64 " shed=%" PRIu64 " drained=%" PRIu64 "\n",
               r.run.workload.c_str(), r.run.collector.c_str(), r.offered, r.offered_rps,
               r.calibrated_rps > 0 ? " calibrated" : "", r.admitted, r.rejected,
               r.shed_queue_full + r.shed_deadline, r.shed_drain);
  std::fprintf(out,
               "  completed_ok=%" PRIu64 " deadline_miss=%" PRIu64 " retries=%" PRIu64
               " retry_denied=%" PRIu64 " throughput=%.0f ops/s\n",
               r.completed_ok, r.deadline_miss, r.retries, r.retry_denied,
               r.run.throughput);
  std::fprintf(out,
               "  governor: max_level=%s transitions=%" PRIu64 " gc_requests=%" PRIu64
               " throttle_stalls=%" PRIu64 "\n",
               PressureLevelName(static_cast<PressureLevel>(r.governor_max_level)),
               r.governor_transitions, r.governor_gc_requests, r.throttle_stalls);
  std::fprintf(out,
               "  gc: cycles=%" PRIu64 " pauses=%" PRIu64 " total_pause=%.1fms "
               "max_pause=%.2fms p99_pause=%.2fms recoverable_ooms=%" PRIu64 "%s\n",
               r.run.gc_cycles, r.run.pause_count_alltime, r.run.TotalPauseMs(),
               r.run.MaxPauseMs(), r.run.PausePercentileMs(99.0), r.run.recoverable_ooms,
               r.run.pause_log_truncated ? " (ring truncated; all-time aggregates)" : "");
  std::fprintf(out,
               "  profiler: degraded_entries=%" PRIu64 " degraded_at_end=%d "
               "decisions=%" PRIu64 "\n",
               r.run.profiler_degraded_entries, r.run.profiler_degraded_at_end ? 1 : 0,
               r.run.decisions_at_end);
  auto print_window = [out](const char* label, const SloReporter::WindowStats& w) {
    std::fprintf(out,
                 "  lateness %-8s p50=%.2fms p95=%.2fms p99=%.2fms p99.9=%.2fms "
                 "max=%.2fms (n=%" PRIu64 ")\n",
                 label, w.p50_ms, w.p95_ms, w.p99_ms, w.p999_ms, w.max_ms, w.count);
  };
  print_window("1min", s.win_1min);
  print_window("15min", s.win_15min);
  print_window("alltime", s.alltime);
  auto print_segment = [out](const char* label, const SloReporter::SegmentStats& g) {
    std::fprintf(out,
                 "  segment %-14s mean=%.3fms p99=%.2fms max=%.2fms (n=%" PRIu64 ")\n",
                 label, g.mean_ms, g.p99_ms, g.max_ms, g.count);
  };
  print_segment("sched->enqueue", s.seg_sched_to_enqueue);
  print_segment("queue-wait", s.seg_queue_wait);
  // No respond line: a service worker responds when execution ends, so
  // that segment always reads 0 here.
  print_segment("execute", s.seg_execute);
}

}  // namespace rolp
