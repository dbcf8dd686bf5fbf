#include "src/runtime/vm.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "src/gc/cms_collector.h"
#include "src/gc/regional_collector.h"
#include "src/gc/zgc_collector.h"
#include "src/runtime/thread.h"
#include "src/util/check.h"
#include "src/util/env.h"
#include "src/util/fault_injection.h"
#include "src/util/log.h"
#include "src/util/proc_stats.h"
#include "src/util/trace.h"

namespace rolp {

const char* GcKindName(GcKind kind) {
  switch (kind) {
    case GcKind::kG1:
      return "g1";
    case GcKind::kCms:
      return "cms";
    case GcKind::kZgc:
      return "zgc";
    case GcKind::kNg2c:
      return "ng2c";
    case GcKind::kRolp:
      return "rolp";
  }
  return "?";
}

namespace {

bool ParseGcName(const std::string& name, GcKind* out) {
  if (name == "g1") {
    *out = GcKind::kG1;
  } else if (name == "cms") {
    *out = GcKind::kCms;
  } else if (name == "zgc") {
    *out = GcKind::kZgc;
  } else if (name == "ng2c") {
    *out = GcKind::kNg2c;
  } else if (name == "rolp") {
    *out = GcKind::kRolp;
  } else {
    return false;
  }
  return true;
}

}  // namespace

bool VmConfig::ParseFlags(const std::vector<std::string>& flags, VmConfig* out,
                          std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  for (const std::string& flag : flags) {
    if (flag.rfind("-Xmx", 0) == 0) {
      std::string v = flag.substr(4);
      size_t mult = 1;
      if (!v.empty() && (v.back() == 'm' || v.back() == 'M')) {
        v.pop_back();
      } else if (!v.empty() && (v.back() == 'g' || v.back() == 'G')) {
        v.pop_back();
        mult = 1024;
      }
      char* end = nullptr;
      long n = std::strtol(v.c_str(), &end, 10);
      if (end == v.c_str() || n <= 0) {
        return fail("bad heap size: " + flag);
      }
      out->heap_mb = static_cast<size_t>(n) * mult;
    } else if (flag == "-XX:+UseROLP") {
      out->gc = GcKind::kRolp;
    } else if (flag.rfind("-XX:GC=", 0) == 0) {
      if (!ParseGcName(flag.substr(7), &out->gc)) {
        return fail("unknown collector: " + flag);
      }
    } else if (flag.rfind("-XX:ROLPFilter=", 0) == 0) {
      std::string list = flag.substr(15);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
          comma = list.size();
        }
        if (comma > pos) {
          out->filter.Include(list.substr(pos, comma - pos));
        }
        pos = comma + 1;
      }
    } else if (flag.rfind("-XX:MaxTenuringThreshold=", 0) == 0) {
      out->gc_config.tenuring_threshold =
          static_cast<uint32_t>(std::strtoul(flag.substr(25).c_str(), nullptr, 10));
    } else if (flag.rfind("-XX:ROLPConflictP=", 0) == 0) {
      double pct = std::strtod(flag.substr(18).c_str(), nullptr);
      if (pct <= 0.0 || pct > 100.0) {
        return fail("bad conflict P: " + flag);
      }
      out->rolp.conflict_p = pct / 100.0;
    } else if (flag.rfind("-XX:ParallelGCThreads=", 0) == 0) {
      uint32_t n = static_cast<uint32_t>(std::strtoul(flag.substr(22).c_str(), nullptr, 10));
      if (n == 0) {
        return fail("bad worker count: " + flag);
      }
      out->gc_config.num_workers = n;
    } else {
      return fail("unknown flag: " + flag);
    }
  }
  return true;
}

VM::VM(const VmConfig& config) : config_(config) {
  // Fail points requested via ROLP_FAULTS arm before any subsystem runs;
  // ROLP_CHAOS then arms its seeded probability campaign on top.
  FaultInjection::Instance().LoadFromEnv();
  FaultInjection::Instance().LoadChaosFromEnv();

  HeapConfig hc;
  hc.heap_bytes = config_.heap_mb * 1024 * 1024;
  hc.region_bytes = config_.region_kb * 1024;
  hc.young_fraction = config_.young_fraction;
  hc.tenuring_threshold = config_.gc_config.tenuring_threshold;
  // Evacuation reserve (DESIGN.md §13): regions only GC-internal allocation
  // may consume, so evacuation under pressure always has a destination.
  // 2 regions once the heap is large enough that losing them to the mutator
  // budget is noise.
  size_t total_regions = hc.heap_bytes / hc.region_bytes;
  hc.evac_reserve_regions = total_regions >= 64 ? 2 : 0;
  // Arena layer (DESIGN.md §15): ROLP_HEAP_ARENAS / ROLP_HEAP_UNCOMMIT_MS.
  // The default is one arena and no uncommit — identical to the pre-arena
  // heap.
  hc.arenas = HeapArenaOptions::FromEnv();
  heap_ = std::make_unique<Heap>(hc);

  jit_ = std::make_unique<JitEngine>(config_.jit, config_.filter);

  GcConfig gcfg = config_.gc_config;
  // Concurrent evacuation for the regional collectors (DESIGN.md §14): copy
  // the cset outside the pause behind a healing load barrier; off keeps the
  // classic fully-STW evacuation pause. CMS/ZGC ignore the knob.
  // ROLP_CONCURRENT_EVAC can only switch it on: a caller's `true` stands.
  if (EnvBool("ROLP_CONCURRENT_EVAC", false)) {
    gcfg.concurrent_evac = true;
  }
  switch (config_.gc) {
    case GcKind::kG1:
      gcfg.use_dynamic_gens = false;
      collector_ = std::make_unique<RegionalCollector>(heap_.get(), gcfg, &safepoints_);
      break;
    case GcKind::kNg2c:
      gcfg.use_dynamic_gens = true;
      collector_ = std::make_unique<RegionalCollector>(heap_.get(), gcfg, &safepoints_);
      break;
    case GcKind::kRolp: {
      gcfg.use_dynamic_gens = true;
      collector_ = std::make_unique<RegionalCollector>(heap_.get(), gcfg, &safepoints_);
      RolpConfig rc = config_.rolp;
      rc.max_gc_workers = gcfg.num_workers > rc.max_gc_workers ? gcfg.num_workers
                                                               : rc.max_gc_workers;
      profiler_ = std::make_unique<Profiler>(rc);
      profiler_->SetCallSiteControl(jit_.get());
      break;
    }
    case GcKind::kCms:
      collector_ = std::make_unique<CmsCollector>(heap_.get(), gcfg, &safepoints_);
      break;
    case GcKind::kZgc:
      collector_ = std::make_unique<ZgcCollector>(heap_.get(), gcfg, &safepoints_);
      break;
  }
  collector_->set_profiler(this);
  if (profiler_ != nullptr) {
    // OLD-table cross-check for the sampled verification walk. Suppressed
    // whenever a row may be legitimately absent: degraded mode cleared the
    // table, or the table shed samples / rejected contexts since the previous
    // pass. The shed counters are compared as per-pass deltas (baseline
    // refreshed by on_pass_begin on the pause thread) so a single drop early
    // in the run does not disable the check for the rest of the process.
    Profiler* p = profiler_.get();
    struct OldCheckState {
      uint64_t dropped = 0;
      uint64_t rejected = 0;
      std::atomic<bool> suppress{false};
    };
    auto st = std::make_shared<OldCheckState>();
    VerifyOptions& vo = collector_->mutable_verify_options();
    vo.on_pass_begin = [p, st] {
      uint64_t d = p->old_table().dropped_samples();
      uint64_t r = p->old_table().rejected_contexts();
      st->suppress.store(d != st->dropped || r != st->rejected,
                         std::memory_order_relaxed);
      st->dropped = d;
      st->rejected = r;
    };
    vo.context_known = [p, st](uint32_t context) {
      if (p->degraded() || st->suppress.load(std::memory_order_relaxed)) {
        return true;
      }
      return p->old_table().Contains(context);
    };
  }

  crash_provider_ = std::make_unique<ScopedCrashContextProvider>(
      "vm", [this](std::FILE* out) {
        std::fprintf(out, "collector: %s\n", collector_->name());
        std::fprintf(out,
                     "last gc end: cycle=%llu pause_ns=%llu kind=%d\n",
                     (unsigned long long)last_gc_end_.gc_cycle,
                     (unsigned long long)last_gc_end_.pause_ns,
                     (int)last_gc_end_.kind);
        RegionManager::Usage u = heap_->regions().ComputeUsage();
        std::fprintf(out,
                     "regions: eden=%zu survivor=%zu old=%zu gen=%zu humongous=%zu "
                     "used_bytes=%zu of %zu regions\n",
                     u.eden_regions, u.survivor_regions, u.old_regions, u.gen_regions,
                     u.humongous_regions, u.used_bytes, heap_->regions().num_regions());
        if (profiler_ != nullptr) {
          OldTable& t = profiler_->old_table();
          std::fprintf(out,
                       "old table: occupied=%zu capacity=%zu dropped=%llu rejected=%llu "
                       "grows=%zu\n",
                       t.occupied(), t.capacity(), (unsigned long long)t.dropped_samples(),
                       (unsigned long long)t.rejected_contexts(), t.grow_count());
          std::fprintf(out, "profiler: degraded=%d reason=%s entries=%llu decisions=%llu\n",
                       profiler_->degraded() ? 1 : 0,
                       DegradeReasonName(profiler_->last_degrade_reason()),
                       (unsigned long long)profiler_->degraded_entries(),
                       (unsigned long long)profiler_->decisions_count());
        }
      });

  // Observability (DESIGN.md §11): ROLP_TRACE arms the trace layer for the
  // whole process; the metrics/old-table dumps below write at VM teardown.
  Trace::InitFromEnv();
  RegisterMetrics();
  metrics_dump_path_ = EnvString("ROLP_METRICS_DUMP", "");
  old_table_dump_path_ = EnvString("ROLP_DUMP_OLD_TABLE", "");
}

VM::~VM() {
  WriteObservabilityDumps();
  // Threads must be detached by their owners before the VM dies.
  std::lock_guard<SpinLock> guard(threads_lock_);
  ROLP_CHECK(threads_.empty());
}

void VM::RegisterMetrics() {
  ScopedMetrics& m = metrics_publisher_;
  m.set_prefix(config_.metrics_prefix);
  GcMetrics& gm = collector_->metrics();
  m.Gauge("gc.cycles", [&gm] { return static_cast<double>(gm.GcCycles()); });
  m.Gauge("gc.pauses", [&gm] { return static_cast<double>(gm.PauseCount()); });
  m.Gauge("gc.pause.total_ns", [&gm] { return static_cast<double>(gm.TotalPauseNs()); });
  m.Gauge("gc.pause.max_ns", [&gm] { return static_cast<double>(gm.MaxPauseNs()); });
  m.Gauge("gc.pause.p50_ns",
          [&gm] { return static_cast<double>(gm.PausePercentileNs(50.0)); });
  m.Gauge("gc.pause.p99_ns",
          [&gm] { return static_cast<double>(gm.PausePercentileNs(99.0)); });
  m.Gauge("gc.bytes_copied", [&gm] { return static_cast<double>(gm.BytesCopied()); });
  m.Gauge("gc.bytes_promoted", [&gm] { return static_cast<double>(gm.BytesPromoted()); });
  m.Gauge("gc.pause.scan_ns", [&gm] { return static_cast<double>(gm.PauseScanNs()); });
  m.Gauge("gc.pause.evac_ns", [&gm] { return static_cast<double>(gm.PauseEvacNs()); });
  m.Gauge("gc.pause.profiler_ns",
          [&gm] { return static_cast<double>(gm.PauseProfilerNs()); });
  m.Gauge("gc.pause.remap_ns", [&gm] { return static_cast<double>(gm.PauseRemapNs()); });
  m.Gauge("gc.evac_cpu_ns", [&gm] { return static_cast<double>(gm.EvacCpuNs()); });
  m.Gauge("gc.remap_cpu_ns", [&gm] { return static_cast<double>(gm.RemapCpuNs()); });
  m.Gauge("gc.concurrent_work_ns",
          [&gm] { return static_cast<double>(gm.ConcurrentWorkNs()); });
  m.Gauge("gc.max_worker_share", [&gm] { return gm.MaxWorkerCopiedShare(); });
  WorkerPool* pool = collector_->workers();
  m.Gauge("gc.pool.dispatches", [pool] { return static_cast<double>(pool->dispatches()); });
  m.Gauge("gc.pool.parks", [pool] { return static_cast<double>(pool->parks()); });
  if (config_.gc == GcKind::kG1 || config_.gc == GcKind::kNg2c ||
      config_.gc == GcKind::kRolp) {
    auto* rc = static_cast<RegionalCollector*>(collector_.get());
    m.Gauge("gc.concurrent.mutator_healed_objects",
            [rc] { return static_cast<double>(rc->mutator_healed_objects()); });
    m.Gauge("gc.concurrent.mutator_healed_bytes",
            [rc] { return static_cast<double>(rc->mutator_healed_bytes()); });
    m.Gauge("gc.concurrent.whole_regions_reclaimed",
            [rc] { return static_cast<double>(rc->whole_regions_reclaimed()); });
  }
  if (config_.gc == GcKind::kZgc) {
    auto* z = static_cast<ZgcCollector*>(collector_.get());
    m.Gauge("zgc.healed_slots",
            [z] { return static_cast<double>(z->barrier_healed_slots()); });
    m.Gauge("zgc.gc_relocated",
            [z] { return static_cast<double>(z->gc_relocated_objects()); });
  }
  m.Histogram("gc.pause_ns",
              [&gm] { return SnapshotLogHistogram(gm.PauseHistogramSnapshot()); });
  m.Histogram("gc.ttsp_ns",
              [this] { return SnapshotLogHistogram(safepoints_.TtspHistogramSnapshot()); });

  m.Gauge("vm.allocations", [this] { return static_cast<double>(total_allocations()); });
  m.Gauge("vm.osr_injected", [this] { return static_cast<double>(total_osr_injected()); });
  m.Gauge("vm.osr_repaired", [this] { return static_cast<double>(total_osr_repaired()); });
  m.Gauge("vm.exception_fixups",
          [this] { return static_cast<double>(total_exception_fixups()); });
  m.Gauge("vm.recoverable_ooms",
          [this] { return static_cast<double>(total_recoverable_ooms()); });

  m.Gauge("faults.total_fires",
          [] { return static_cast<double>(FaultInjection::Instance().TotalFires()); });
  // Per-fail-point hit/fire counters: one gauge pair per catalog entry, so a
  // ROLP_METRICS_DUMP snapshot records exactly which points a chaos campaign
  // exercised and how often they fired.
  for (const auto& entry : FaultInjection::Catalog()) {
    const char* point = entry.name;
    m.Gauge(std::string("faults.point.") + point + ".hits", [point] {
      return static_cast<double>(FaultInjection::Instance().Hits(point));
    });
    m.Gauge(std::string("faults.point.") + point + ".fires", [point] {
      return static_cast<double>(FaultInjection::Instance().Fires(point));
    });
  }

  Heap* h = heap_.get();
  m.Gauge("heap.quarantined_regions", [h] {
    return static_cast<double>(h->regions().quarantined_regions());
  });
  m.Gauge("governor.level", [h] {
    return static_cast<double>(static_cast<uint8_t>(h->governor().level()));
  });
  m.Gauge("governor.max_level", [h] {
    return static_cast<double>(static_cast<uint8_t>(h->governor().max_level()));
  });
  m.Gauge("governor.occupancy", [h] { return h->governor().last_occupancy(); });
  m.Gauge("governor.transitions",
          [h] { return static_cast<double>(h->governor().transitions()); });
  m.Gauge("governor.gc_requests",
          [h] { return static_cast<double>(h->governor().gc_requests()); });
  m.Gauge("governor.throttle_stalls",
          [h] { return static_cast<double>(h->governor().throttle_stalls()); });
  m.Gauge("heap.evac_reserve_regions",
          [h] { return static_cast<double>(h->regions().evac_reserve()); });
  m.Gauge("gc.pause.verify_ns", [&gm] { return static_cast<double>(gm.PauseVerifyNs()); });

  // Arena layer (DESIGN.md §15): shard count, free-pool and uncommit state,
  // and the region-lock contention counters — the CPU-time scaling signal the
  // 1-CPU bench container can still measure.
  m.Gauge("heap.arenas", [h] { return static_cast<double>(h->regions().num_arenas()); });
  m.Gauge("heap.free_regions",
          [h] { return static_cast<double>(h->regions().free_regions()); });
  m.Gauge("heap.uncommitted_regions",
          [h] { return static_cast<double>(h->regions().uncommitted_regions()); });
  m.Gauge("heap.region.commits",
          [h] { return static_cast<double>(h->regions().region_commits()); });
  m.Gauge("heap.region.uncommits",
          [h] { return static_cast<double>(h->regions().region_uncommits()); });
  m.Gauge("heap.region_lock.acquisitions",
          [h] { return static_cast<double>(h->regions().lock_acquisitions()); });
  m.Gauge("heap.region_lock.stall_ns",
          [h] { return static_cast<double>(h->regions().lock_stall_ns()); });
  // Whole-process RSS: the live view of what uncommit returns to the OS.
  m.Gauge("vm.rss_bytes", [] { return static_cast<double>(CurrentRssBytes()); });

  // Per-phase thread-CPU totals (WatchdogPhaseScope deltas), one gauge per
  // GcPhase that can actually run — kIdle excluded.
  for (GcPhase phase : {GcPhase::kMark, GcPhase::kScan, GcPhase::kEvacuate,
                        GcPhase::kCompact, GcPhase::kVerify, GcPhase::kProfilerMerge,
                        GcPhase::kConcurrentEvac}) {
    size_t slot = static_cast<size_t>(phase);
    m.Gauge(std::string("gc.phase_cpu_ns.") + GcPhaseName(phase),
            [&gm, slot] { return static_cast<double>(gm.PhaseCpuNs(slot)); });
  }

  // Sampled through the collector so ROLP_WATCHDOG=0 (null watchdog) reads 0.
  Collector* c = collector_.get();
  m.Gauge("verify.refs_healed",
          [c] { return static_cast<double>(c->verify_stats().refs_healed); });
  m.Gauge("verify.refs_nulled",
          [c] { return static_cast<double>(c->verify_stats().refs_nulled); });
  m.Gauge("watchdog.overruns", [c] {
    GcWatchdog* w = c->watchdog();
    return w == nullptr ? 0.0 : static_cast<double>(w->stats().overruns_detected);
  });
  m.Gauge("watchdog.phases_cancelled", [c] {
    GcWatchdog* w = c->watchdog();
    return w == nullptr ? 0.0 : static_cast<double>(w->stats().phases_cancelled);
  });
  m.Gauge("watchdog.worker_stalls", [c] {
    GcWatchdog* w = c->watchdog();
    return w == nullptr ? 0.0 : static_cast<double>(w->stats().worker_stalls_detected);
  });
  m.Gauge("watchdog.items_requeued", [c] {
    GcWatchdog* w = c->watchdog();
    return w == nullptr ? 0.0 : static_cast<double>(w->stats().items_requeued);
  });

  if (profiler_ != nullptr) {
    Profiler* p = profiler_.get();
    m.Gauge("rolp.inferences", [p] { return static_cast<double>(p->inferences_run()); });
    m.Gauge("rolp.decisions", [p] { return static_cast<double>(p->decisions_count()); });
    m.Gauge("rolp.conflicts", [p] { return static_cast<double>(p->conflicts_total()); });
    m.Gauge("rolp.survivors_seen",
            [p] { return static_cast<double>(p->survivors_seen()); });
    m.Gauge("rolp.degraded", [p] { return p->degraded() ? 1.0 : 0.0; });
    m.Gauge("rolp.degraded_entries",
            [p] { return static_cast<double>(p->degraded_entries()); });
    m.Gauge("rolp.tracking_toggles",
            [p] { return static_cast<double>(p->survivor_tracking_toggles()); });
    m.Gauge("rolp.async_inferences_started",
            [p] { return static_cast<double>(p->async_inferences_started()); });
    m.Gauge("rolp.stale_inferences_discarded",
            [p] { return static_cast<double>(p->stale_inferences_discarded()); });
    m.Gauge("rolp.old_table.occupied",
            [p] { return static_cast<double>(p->old_table().occupied()); });
    m.Gauge("rolp.old_table.capacity",
            [p] { return static_cast<double>(p->old_table().capacity()); });
    m.Gauge("rolp.old_table.dropped",
            [p] { return static_cast<double>(p->old_table().dropped_samples()); });
    m.Gauge("rolp.old_table.rejected",
            [p] { return static_cast<double>(p->old_table().rejected_contexts()); });
  }
}

void VM::WriteObservabilityDumps() {
  if (!metrics_dump_path_.empty()) {
    MetricsRegistry::Instance().WriteSnapshotFiles(metrics_dump_path_);
    // Companion fault-catalog dump: per-point mode and hit/fire counters in
    // human-readable form (the JSON snapshot carries the same numbers as
    // faults.point.* gauges).
    std::string faults_path = metrics_dump_path_ + ".faults";
    std::FILE* f = std::fopen(faults_path.c_str(), "w");
    if (f != nullptr) {
      FaultInjection::Instance().DumpTo(f);
      std::fclose(f);
    } else {
      ROLP_LOG_ERROR("metrics: cannot open %s for writing", faults_path.c_str());
    }
  }
  if (!old_table_dump_path_.empty() && profiler_ != nullptr) {
    profiler_->WriteIntrospection(old_table_dump_path_);
  }
}

RuntimeThread* VM::AttachThread() {
  RuntimeThread* t;
  {
    std::lock_guard<SpinLock> guard(threads_lock_);
    auto owned = std::make_unique<RuntimeThread>(this, next_thread_id_++);
    t = owned.get();
    all_threads_.push_back(std::move(owned));
    threads_.push_back(t);
  }
  // Outside threads_lock_: registration waits out a running pause, and the
  // pause's GC-end hook takes threads_lock_.
  safepoints_.RegisterThread(&t->gc_context());
  return t;
}

void VM::DetachThread(RuntimeThread* thread) {
  // The thread's batched OLD-table increments must not die with it.
  thread->FlushAllocBuffer();
  collector_->OnMutatorExit(&thread->gc_context());
  safepoints_.UnregisterThread(&thread->gc_context());
  std::lock_guard<SpinLock> guard(threads_lock_);
  for (size_t i = 0; i < threads_.size(); i++) {
    if (threads_[i] == thread) {
      threads_[i] = threads_.back();
      threads_.pop_back();
      break;
    }
  }
}

GlobalRef VM::NewGlobalRoot(Object* initial) { return GlobalRef(&heap_->roots(), initial); }

Object* VM::LoadGlobal(const GlobalRef& ref) {
  if (!ref.valid()) {
    return nullptr;
  }
  // Route through the barrier so the read heals under the concurrent
  // collector.
  return heap_->LoadRef(ref.slot());
}

bool VM::SurvivorTrackingEnabled() const {
  return profiler_ != nullptr && profiler_->SurvivorTrackingEnabled();
}

void VM::OnSurvivor(uint32_t worker_id, uint64_t old_mark) {
  if (profiler_ != nullptr) {
    profiler_->OnSurvivor(worker_id, old_mark);
  }
}

void VM::OnGcEnd(const GcEndInfo& info) {
  last_gc_end_ = info;
  // Paper section 7.2.3: at the end of each GC cycle, while the world is
  // still stopped, verify every thread's stack state against its frame stack
  // and repair OSR-induced corruption. The same walk drains every thread's
  // allocation sample buffer so OLD-table counts are exact before the
  // profiler merges survivors and runs inference, and so cached pretenuring
  // decisions cannot outlive the decision set published below (DESIGN.md §9).
  {
    std::lock_guard<SpinLock> guard(threads_lock_);
    for (RuntimeThread* t : threads_) {
      t->VerifyAndRepairTss();
      t->FlushAllocBuffer();
    }
  }
  // Refresh the pressure ladder on the exact post-collection occupancy and,
  // while the world is still stopped, let rung 3 shed the profiler's weight.
  HeapGovernor& governor = heap_->governor();
  PressureLevel level = governor.Update();
  if (profiler_ != nullptr) {
    profiler_->OnHeapPressure(level >= PressureLevel::kDegrade);
    profiler_->OnGcEnd(info);
  }
}

void VM::OnGenFragmentation(uint8_t gen, double live_ratio) {
  if (profiler_ != nullptr) {
    profiler_->OnGenFragmentation(gen, live_ratio);
  }
}

void VM::OnGcOverrun(bool survivor_tracking_active) {
  if (profiler_ != nullptr) {
    profiler_->OnGcOverrun(survivor_tracking_active);
  }
}

void VM::OnHeapCorruption(size_t finding_count) {
  if (profiler_ != nullptr) {
    profiler_->OnHeapCorruption(finding_count);
  }
}

uint64_t VM::total_exception_fixups() const {
  std::lock_guard<SpinLock> guard(threads_lock_);
  uint64_t n = 0;
  for (const auto& t : all_threads_) {
    n += t->exception_fixups();
  }
  return n;
}

uint64_t VM::total_osr_injected() const {
  std::lock_guard<SpinLock> guard(threads_lock_);
  uint64_t n = 0;
  for (const auto& t : all_threads_) {
    n += t->osr_injected();
  }
  return n;
}

uint64_t VM::total_osr_repaired() const {
  std::lock_guard<SpinLock> guard(threads_lock_);
  uint64_t n = 0;
  for (const auto& t : all_threads_) {
    n += t->osr_repaired();
  }
  return n;
}

uint64_t VM::total_allocations() const {
  std::lock_guard<SpinLock> guard(threads_lock_);
  uint64_t n = 0;
  for (const auto& t : all_threads_) {
    n += t->allocations();
  }
  return n;
}

uint64_t VM::total_recoverable_ooms() const {
  std::lock_guard<SpinLock> guard(threads_lock_);
  uint64_t n = 0;
  for (const auto& t : all_threads_) {
    n += t->recoverable_ooms();
  }
  return n;
}

}  // namespace rolp
