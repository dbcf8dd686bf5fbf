"""Workload and metric definitions, output checks, and the computation of
end-to-end and per-layer metrics from one driver run's raw JSON.

BENCHMARK.json at the repository root mirrors GATED_WORKLOADS, END_TO_END
and PER_LAYER; perfbench/tests checks that the two agree.
"""

import stats

# Every workload the driver runs. BENCHMARK.json gates the two kv ones;
# lucene-cms-closed and ingest-zgc-open are runnable and reported but not
# gated (README "Noise").
WORKLOADS = {
    "kv-rolp-open": "kvstore cassandra-wi under ROLP, open-loop Poisson 20k req/s, 2 workers: "
                    "the paper's headline; profiled allocation, OLD-table merge, inference",
    "kv-g1-open": "same seed, traffic and load phase under G1: the baseline, dominated by "
                  "STW evacuation with the profiler idle",
    "lucene-cms-closed": "textindex under CMS, closed loop, 1 mutator, fixed op count: CMS "
                         "scavenge, free-list old space, concurrent mark-sweep; Fig. 10 throughput",
    "ingest-zgc-open": "market-data pipeline, ZGC arm, fused, fixed 100k events/s schedule: "
                       "load barrier, concurrent mark/relocate, SpscRing and Pacer",
}

GATED_WORKLOADS = ["kv-rolp-open", "kv-g1-open"]

# One measurement runs the workload in this many fresh processes, one after
# another, each for an equal share of --seconds, and reports the median of
# each metric across them. The same code and input run at different speeds in
# different processes on a shared host (lucene-cms-closed: 98k-146k ops/s
# between back-to-back 2 s runs), so one process is one sample. At the
# benchmark's 30 s each process measures 6 s: about 29 pauses, enough for a
# guarded pause p50.
PROCESSES = 5

# Gated: name, unit, better, bound (share of the parent's median it may
# worsen by).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("latency_p50_us", "us", "lower", 0.25),
    ("pause_p50_ms", "ms", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.1),
]

# Printed beside the gated metrics, with sample counts, but not gated: on
# this host they spread wider than any allowed bound on some gated workload
# (README "Noise"). A percentile is omitted where fewer than ten samples lie
# beyond it.
REPORTED = [
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_p99_us", "us", "lower"),
    ("latency_p999_us", "us", "lower"),
    ("pause_p90_ms", "ms", "lower"),
    ("pause_p99_ms", "ms", "lower"),
    ("gc_pause_frac", "ratio", "lower"),
]

# In PauseKind order: a traced gc.pause span carries the kind's index.
PAUSE_KINDS = ["young", "mixed", "full", "cms-remark", "cms-sweep", "z-mark", "z-remark",
               "z-relocate-start", "remap"]

# Per-layer metrics where more is better (work done, copy rate, learned
# decisions); every other one reads better lower.
HIGHER_IS_BETTER = {"kvstore.flushes", "kvstore.compactions", "textindex.segments_sealed",
                    "textindex.merges", "ingest.analyzed", "gc.copy_mb_s", "rolp.decisions"}

# name, unit. Zero where the workload does not use the layer.
PER_LAYER = (
    [("service.sched_lag_us_mean", "us"), ("service.queue_wait_us_mean", "us"),
     ("service.queue_wait_ms_p99", "ms"), ("service.execute_us_mean", "us"),
     ("service.rejected", "count"), ("service.shed", "count"),
     ("service.deadline_miss", "count"),
     ("workloads.op_us_mean", "us"), ("workloads.op_self_us_mean", "us"),
     ("kvstore.flushes", "count"), ("kvstore.compactions", "count"),
     ("textindex.segments_sealed", "count"), ("textindex.merges", "count"),
     ("ingest.alloc_ns_per_event", "ns"), ("ingest.analyzed", "count"),
     ("runtime.allocations", "count"), ("runtime.jit.instrumented_call_sites", "count"),
     ("runtime.jit.tracked_call_sites", "count"),
     ("heap.allocated_mb", "MB"), ("heap.max_used_mb", "MB"),
     ("heap.region_lock.acquisitions", "count"), ("heap.region_lock.stall_ms", "ms"),
     ("heap.region.commits", "count"), ("heap.region.uncommits", "count"),
     ("governor.throttle_stalls", "count"), ("governor.max_level", "level"),
     ("gc.cycles", "count"), ("gc.pauses", "count")]
    + [("gc.pause.%s.count" % k, "count") for k in PAUSE_KINDS]
    + [("gc.pause.total_ms", "ms"), ("gc.pause.scan_ms", "ms"), ("gc.pause.evac_ms", "ms"),
       ("gc.pause.profiler_ms", "ms"), ("gc.pause.verify_ms", "ms"),
       ("gc.pause.other_ms", "ms")]
    + [("gc.phase_cpu_ms.%s" % p, "ms")
       for p in ("mark", "scan", "evacuate", "compact", "profiler-merge", "verify",
                 "concurrent-evac", "remap")]
    + [("gc.copied_mb", "MB"), ("gc.promoted_mb", "MB"), ("gc.copy_mb_s", "MB/s"),
       ("gc.concurrent_work_ms", "ms"), ("gc.pause.remap_ms", "ms"),
       ("zgc.healed_slots", "count"), ("zgc.relocated", "count"),
       ("rolp.inferences", "count"), ("rolp.inference_ms", "ms"),
       ("rolp.decisions", "count"), ("rolp.first_decision_cycle", "cycle"),
       ("rolp.tracking_toggles", "count"), ("rolp.conflicts", "count"),
       ("rolp.survivors_seen", "count"), ("rolp.old_table.occupied", "count"),
       ("rolp.old_table.dropped", "count"), ("rolp.degraded_entries", "count"),
       ("trace.events", "count"), ("trace.overwritten", "count")]
)

# Per-layer metrics that only the ungated workloads use (ingest, CMS, ZGC) or
# that no workload reads as other than zero (times of phases that are off).
# They are printed in the text report but left out of BENCHMARK.json and the
# result line: on the gated workloads they read 0 in every run.
UNGATED_ONLY = (
    {"textindex.segments_sealed", "textindex.merges", "ingest.alloc_ns_per_event",
     "ingest.analyzed", "zgc.healed_slots", "zgc.relocated", "gc.pause.remap_ms",
     "gc.pause.verify_ms"}
    | {"gc.pause.%s.count" % k
       for k in ("cms-remark", "cms-sweep", "z-mark", "z-remark", "z-relocate-start", "remap")}
    | {"gc.phase_cpu_ms.%s" % p for p in ("compact", "verify", "concurrent-evac", "remap")}
)

# The per-layer metrics of BENCHMARK.json, in PER_LAYER order.
GATED_PER_LAYER = [(name, unit) for name, unit in PER_LAYER if name not in UNGATED_ONLY]

# Named per-layer figures that no interface outside src/ exposes.
UNREADABLE = {
    "gc.max_worker_share": "GcMetrics::MaxWorkerCopiedShare is published neither to the "
                           "metrics registry nor in RunResult/ServiceResult/IngestResult",
}
INGEST_UNREADABLE = {
    "workloads.op_us_mean": "RunIngest exposes no per-event timing",
    "workloads.op_self_us_mean": "RunIngest exposes no per-event timing",
    "runtime.jit.instrumented_call_sites": "IngestResult carries no JIT counts",
    "runtime.jit.tracked_call_sites": "IngestResult carries no JIT counts",
    "heap.allocated_mb": "IngestResult carries no heap byte counts",
    "heap.max_used_mb": "IngestResult carries no heap byte counts",
}


# --- output checks -----------------------------------------------------------

def checks(raw):
    """Returns the list of failed output checks (empty when all hold)."""
    failed = []

    def need(cond, what):
        if not cond:
            failed.append(what)

    w = raw["workload"]
    if w.startswith("kv-"):
        s, wr = raw["service"], raw["wrapper"]
        need(raw["attempted"] == raw["scheduled"],
             "offered %d != scheduled %d" % (raw["attempted"], raw["scheduled"]))
        terminal = (s["completed_ok"] + s["deadline_miss"] + s["rejected"]
                    + s["shed_queue_full"] + s["shed_deadline"] + s["shed_drain"])
        need(terminal == s["offered"] and s["slo_total"] == s["offered"],
             "terminal outcomes %d (reporter %d) != offered %d"
             % (terminal, s["slo_total"], s["offered"]))
        executed = s["completed_ok"] + s["deadline_miss"]
        need(wr["executed"] == executed and wr["completed_ids"] == executed,
             "executed ops %d / ids %d != completions %d"
             % (wr["executed"], wr["completed_ids"], executed))
        need(wr["out_of_range"] == 0, "op ids outside the schedule")
        need(wr["early"] == 0, "%d ops ran before their scheduled arrival" % wr["early"])
    elif w == "lucene-cms-closed":
        wr = raw["wrapper"]
        need(raw["ok"] == raw["attempted"],
             "completed %d != fixed count %d" % (raw["ok"], raw["attempted"]))
        need(wr["executed"] == raw["attempted"] and wr["completed_ids"] == raw["attempted"],
             "timed ops %d != fixed count %d" % (wr["executed"], raw["attempted"]))
    else:
        g = raw["ingest"]
        need(g["parsed"] + g["parse_drops"] == raw["scheduled"],
             "parsed %d + drops %d != scheduled %d"
             % (g["parsed"], g["parse_drops"], raw["scheduled"]))
        need(g["analyzed"] == g["applied"],
             "analyzed %d != applied %d" % (g["analyzed"], g["applied"]))
        need(g["survived"] and g["reference_survived"] and g["probe_survived"],
             "pipeline conservation failed")
        need(g["checksum"] == g["reference_checksum"],
             "book checksum %d != pooled reference %d"
             % (g["checksum"], g["reference_checksum"]))
    return failed


# --- end-to-end --------------------------------------------------------------

def end_to_end(raw):
    """Returns {name: (value, sample_count)} for one process: every END_TO_END
    metric, and each REPORTED one that passes the percentile guard. Raises
    ValueError when a gated percentile lacks ten samples beyond it."""
    w = raw["workload"]
    out = {}
    out["setup_s"] = (raw["setup_ns"] / 1e9, 1)
    out["success_rate"] = (raw["ok"] / raw["attempted"], raw["attempted"])
    out["throughput_ops_s"] = (raw["ok"] / (raw["measured_ns"] / 1e9), raw["ok"])

    if w == "ingest-zgc-open":
        g = raw["ingest"]
        lat = {"n": g["measured"], "p50_ns": g["p50_ns"], "p99_ns": g["p99_ns"],
               "p99.9_ns": g["p999_ns"]}
        hist = raw["metrics_end"]["histograms"]["gc.pause_ns"]
        pause_n = hist["count"]
        pause_ms = {p: hist["p%d" % p] / 1e6 for p in (50, 90, 99)}
        pause_total_ns = raw["metrics_end"]["gauges"]["gc.pause.total_ns"]
    else:
        lat = raw["op"] if w == "lucene-cms-closed" else raw["latency"]
        durs = [p["dur_ns"] / 1e6 for p in raw["pauses"]]
        pause_n = len(durs)
        pause_ms = {p: stats.nearest_rank(durs, p) for p in (50, 90, 99)}
        pause_total_ns = sum(p["dur_ns"] for p in raw["pauses"])

    for p, key in ((50, "p50_ns"), (99, "p99_ns"), (99.9, "p99.9_ns")):
        if stats.percentile_printable(lat["n"], p):
            out["latency_p%s_us" % ("%g" % p).replace(".", "")] = (lat[key] / 1e3, lat["n"])
    for p in (50, 90, 99):
        if stats.percentile_printable(pause_n, p):
            out["pause_p%d_ms" % p] = (pause_ms[p], pause_n)
    out["gc_pause_frac"] = (pause_total_ns / raw["measured_ns"], pause_n)
    out["rss_peak_mb"] = (raw["rss_peak_bytes"] / 2**20, 1)
    for name, _, _, _ in END_TO_END:
        if name not in out:
            raise ValueError("%s: too few samples for ten beyond the percentile" % name)
    return out


def pause_kinds(raw):
    """Per-kind pause count and guarded p50 over the measured window."""
    if raw["workload"] == "ingest-zgc-open":
        return None  # RunIngest returns no pause records
    return stats.pause_summary(raw["pauses"])


def state_split(raw):
    """The ROLP state a kv run settled in: MB copied in the measured window
    and survivor-tracking toggles over the VM's life."""
    if not raw["workload"].startswith("kv-"):
        return None
    copied = sum(p["copied"] for p in raw["pauses"]) / 2**20
    return {"copied_mb": copied, "tracking_toggles": raw["vm"]["survivor_tracking_toggles"]}


# --- per-layer ---------------------------------------------------------------

def trace_figures(trace_events, window_start_ns):
    """Span-derived figures: pause time outside the traced phases, inference
    time, and a self-time table of the benchmark's own and the program's
    workload spans."""
    every = [(e["name"], e["tid"], e["ts"] * 1e3, (e["ts"] + e["dur"]) * 1e3)
             for e in trace_events if e.get("ph") == "X"]
    kind_counts = {}
    for e in trace_events:
        if e.get("ph") == "X" and e["name"] == "gc.pause" and e["ts"] * 1e3 >= window_start_ns:
            kind = PAUSE_KINDS[e["args"]["v"]]
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
    # GC and profiler figures cover the measured window; the benchmark's own
    # spans (set-up, load phase, the Run* call) start before it.
    spans = [x for x in every if x[2] >= window_start_ns]
    pauses = [(s, e) for name, _, s, e in spans if name == "gc.pause"]
    phases = sorted((s, e) for name, _, s, e in spans if name.startswith("gc.phase."))
    other = 0.0
    j = 0
    for ps, pe in sorted(pauses):
        while j < len(phases) and phases[j][1] <= ps:
            j += 1
        inside = []
        k = j
        while k < len(phases) and phases[k][0] < pe:
            inside.append(phases[k])
            k += 1
        other += stats.self_time((ps, pe), inside)
    inference = sum(e - s for name, _, s, e in spans if name == "rolp.inference.analyze")

    table = {}
    top = [x for x in every if x[0].startswith(("bench.", "workload."))]
    for name, tid, s, e in top:
        kids = [(cs, ce) for cn, ct, cs, ce in top
                if ct == tid and cs >= s and ce <= e and (cs, ce, cn) != (s, e, name)]
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (e - s) / 1e6
        row[2] += stats.self_time((s, e), kids) / 1e6
    phase_ms = {}
    for name, _, s, e in spans:
        if name.startswith("gc.phase."):
            phase_ms[name] = phase_ms.get(name, 0.0) + (e - s) / 1e6
    return {"pause_other_ms": other / 1e6, "inference_ms": inference / 1e6,
            "pause_traced_ms": sum(e - s for s, e in pauses) / 1e6,
            "pause_kinds": kind_counts,
            "spans": table, "phase_wall_ms": phase_ms}


def per_layer(raw, trace):
    """Returns {name: value} for every PER_LAYER metric."""
    w = raw["workload"]
    end = raw["metrics_end"]["gauges"]
    start = (raw.get("metrics_start") or {}).get("gauges", {})

    def delta(name):
        return end.get(name, 0.0) - start.get(name, 0.0)

    m = {name: 0.0 for name, _ in PER_LAYER}
    if w.startswith("kv-"):
        s = raw["service"]
        m["service.sched_lag_us_mean"] = s["sched_lag_ms_mean"] * 1e3
        m["service.queue_wait_us_mean"] = s["queue_wait_ms_mean"] * 1e3
        if stats.percentile_printable(s["queue_wait_n"], 99):
            m["service.queue_wait_ms_p99"] = s["queue_wait_ms_p99"]
        m["service.execute_us_mean"] = s["execute_ms_mean"] * 1e3
        m["service.rejected"] = s["rejected"]
        m["service.shed"] = s["shed_queue_full"] + s["shed_deadline"] + s["shed_drain"]
        m["service.deadline_miss"] = s["deadline_miss"]
    if w == "ingest-zgc-open":
        g = raw["ingest"]
        m["ingest.alloc_ns_per_event"] = g["alloc_ns_per_event"]
        m["ingest.analyzed"] = g["analyzed"]
    else:
        m["workloads.op_us_mean"] = raw["op"]["mean_ns"] / 1e3
        m["workloads.op_self_us_mean"] = raw.get("op_self_mean_ns", 0.0) / 1e3
        vm = raw["vm"]
        m["runtime.jit.instrumented_call_sites"] = vm["instrumented_call_sites"]
        m["runtime.jit.tracked_call_sites"] = vm["tracked_call_sites"]
        m["heap.allocated_mb"] = vm["total_allocated_bytes"] / 2**20
        m["heap.max_used_mb"] = vm["max_used_bytes"] / 2**20
        m["rolp.first_decision_cycle"] = vm["first_decision_cycle"]
    m.update(raw.get("work", {}))

    m["runtime.allocations"] = delta("vm.allocations")
    m["heap.region_lock.acquisitions"] = delta("heap.region_lock.acquisitions")
    m["heap.region_lock.stall_ms"] = delta("heap.region_lock.stall_ns") / 1e6
    m["heap.region.commits"] = delta("heap.region.commits")
    m["heap.region.uncommits"] = delta("heap.region.uncommits")
    m["governor.throttle_stalls"] = delta("governor.throttle_stalls")
    m["governor.max_level"] = end.get("governor.max_level", 0.0)

    m["gc.cycles"] = delta("gc.cycles")
    m["gc.pauses"] = delta("gc.pauses")
    kinds = pause_kinds(raw)
    if kinds is not None:
        for kind, row in kinds.items():
            m["gc.pause.%s.count" % kind] = row["count"]
    elif trace is not None:  # RunIngest returns no pause records; its trace does
        for kind, count in trace["pause_kinds"].items():
            m["gc.pause.%s.count" % kind] = count
    for part in ("total", "scan", "evac", "profiler", "verify", "remap"):
        m["gc.pause.%s_ms" % part] = delta("gc.pause.%s_ns" % part) / 1e6
    for phase in ("mark", "scan", "evacuate", "compact", "profiler-merge", "verify",
                  "concurrent-evac"):
        m["gc.phase_cpu_ms.%s" % phase] = delta("gc.phase_cpu_ns.%s" % phase) / 1e6
    m["gc.phase_cpu_ms.remap"] = delta("gc.remap_cpu_ns") / 1e6
    m["gc.copied_mb"] = delta("gc.bytes_copied") / 2**20
    m["gc.promoted_mb"] = delta("gc.bytes_promoted") / 2**20
    stopped_s = m["gc.pause.total_ms"] / 1e3
    m["gc.copy_mb_s"] = m["gc.copied_mb"] / stopped_s if stopped_s > 0 else 0.0
    m["gc.concurrent_work_ms"] = delta("gc.concurrent_work_ns") / 1e6
    m["zgc.healed_slots"] = delta("zgc.healed_slots")
    m["zgc.relocated"] = delta("zgc.gc_relocated")

    for name in ("inferences", "tracking_toggles", "conflicts", "survivors_seen",
                 "old_table.dropped", "degraded_entries"):
        m["rolp." + name] = delta("rolp." + name)
    m["rolp.decisions"] = end.get("rolp.decisions", 0.0)
    m["rolp.old_table.occupied"] = end.get("rolp.old_table.occupied", 0.0)

    if trace is not None:
        m["gc.pause.other_ms"] = trace["pause_other_ms"]
        m["rolp.inference_ms"] = trace["inference_ms"]
        m["trace.events"] = trace["events"]
        m["trace.overwritten"] = trace["overwritten"]
    return {k: float(v) for k, v in m.items()}
