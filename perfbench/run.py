#!/usr/bin/env python3
"""End-to-end benchmark of the ROLP runtime (see perfbench/README.md).

One measurement:
    python3 perfbench/run.py --workload kv-rolp-open --seed 1 --seconds 30 --trace 0
prints every end-to-end metric with its unit and sample count, the output
checks, and as its last line one JSON object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 1 runs the workload untraced and then traced, prints the tracing
overhead on each end-to-end metric, and reports the per-layer metrics.

Repeat mode (one workload, N seeds, spread per metric against its bound):
    python3 perfbench/run.py --workload kv-g1-open --repeat 10 --seed 1
A/B mode (this tree against another source tree, alternating pairs):
    python3 perfbench/run.py --workload kv-g1-open --ab-root ../parent --pairs 10

The runtime is built from ../src into $CARGO_TARGET_DIR (default .bench_build)
under the repository root. Runs never overlap: a lock file serializes them.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
# One driver process takes 5-10 s; a hung one must not hold the measurement
# past its 180 s limit.
RUN_TIMEOUT_S = 60
# Largest share of CPU time the hypervisor may steal during a measured
# process before the process is run again, and how many processes one
# measurement may discard so (bounding its run time). Calm periods here read
# 0.1-0.5%; measurements whose processes averaged 1-5% read kv-rolp-open
# lateness p50 and pause p50 5-25% higher (README "Noise").
MAX_STEAL = 0.01
MAX_DISCARDS = 2


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs with seeds seed..seed+N-1")
    p.add_argument("--ab-root", help="source tree (holding src/) to compare against")
    p.add_argument("--pairs", type=int, default=10)
    a = p.parse_args(argv)
    if not 1 <= a.seconds <= 60:
        p.error("--seconds must be 1..60")
    if a.seed < 0:
        p.error("--seed must be >= 0")
    return a


def refuse_rolp_env(environ):
    """The runtime reads ROLP_* knobs inside the VM; a stray one would change
    what is measured, so none may be set by the caller."""
    return sorted(k for k in environ if k.startswith("ROLP_"))


# --- build -------------------------------------------------------------------

def build_dir(tag):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / tag


def build(src_root=None):
    """Configures and builds the driver; returns its path."""
    tag = "perfbench"
    extra = []
    if src_root is not None:
        src_root = Path(src_root).resolve()
        tag += "-ab-" + hashlib.sha1(str(src_root).encode()).hexdigest()[:10]
        extra = ["-DROLP_ROOT=" + str(src_root)]
    out = build_dir(tag)
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + extra)
    cmds.append(["cmake", "--build", str(out), "-j4", "--target", "perfbench_driver"])
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def build_type(driver):
    cache = driver.parent / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


# --- machine record ------------------------------------------------------------

def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])
    return d[7] / total if total > 0 and len(d) > 7 else 0.0


def machine_record(driver):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    return {"rev": rev, "build": build_type(driver), "nproc": os.cpu_count(),
            "cpu": model, "load1": load1}


# --- running the driver ----------------------------------------------------------

def run_driver(driver, workload, seed, seconds, tag, trace=False):
    work = driver.parent / "runs"
    work.mkdir(exist_ok=True)
    dump = work / ("%s.metrics.json" % tag)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--dump", str(dump)]
    trace_path = work / ("%s.trace.json" % tag)
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROLP_")}
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: driver timed out" % tag)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("%s: driver exited with %d" % (tag, r.returncode))
    raw = json.loads(r.stdout.strip().splitlines()[-1])
    # The driver embedded the VM's dump; drop it and its companion files.
    for leftover in work.glob(dump.name + "*"):
        leftover.unlink()
    if trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        start = raw["vm"]["run_start_ns"] if "vm" in raw else 0
        raw["trace"] = metrics.trace_figures(events, start)
        raw["trace"]["events"] = len(events)
        raw["trace"]["overwritten"] = raw["trace_events_recorded"] - len(events)
        trace_path.unlink()
    return raw


def median_of(rows):
    """{name: (median value, summed sample count)} over the per-process rows
    that have the name."""
    names = dict.fromkeys(name for r in rows for name in r)
    return {name: (stats.summarize([r[name][0] for r in rows if name in r])["median"],
                   sum(r[name][1] for r in rows if name in r))
            for name in names}


def measure(driver, workload, seed, seconds, trace=False):
    """Runs the workload in metrics.PROCESSES fresh processes (seeds derived
    from `seed`) and returns the per-metric medians across them. A process
    during which the hypervisor stole more than MAX_STEAL of the CPUs did not
    measure the program; it is discarded and run again, at most MAX_DISCARDS
    times per measurement."""
    raws, e2e, layer, failed_checks, discarded = [], [], [], [], []
    attempted = failed = 0
    steal_total = [0] * 10
    i = 0
    while i < metrics.PROCESSES:
        proc_seed = seed * metrics.PROCESSES + i
        tag = "%s-%d%s" % (workload, proc_seed, "-traced" if trace else "")
        before = cpu_times()
        raw = run_driver(driver, workload, proc_seed, seconds / metrics.PROCESSES, tag, trace)
        after = cpu_times()
        steal = steal_share(before, after)
        if steal > MAX_STEAL and len(discarded) < MAX_DISCARDS:
            discarded.append(steal)
            continue
        steal_total = [t + b - a for t, a, b in zip(steal_total, before, after)]
        problems = metrics.checks(raw)
        try:
            e2e.append(metrics.end_to_end(raw))
        except ValueError as err:
            fail("%s: %s" % (tag, err))
        if trace:
            layer.append({k: (v, 1) for k, v in metrics.per_layer(raw, raw["trace"]).items()})
        failed_checks += ["process %d: %s" % (i, p) for p in problems]
        attempted += raw["attempted"]
        failed += raw["attempted"] if problems else raw["attempted"] - raw["ok"]
        raws.append(raw)
        i += 1
    return {"raws": raws, "e2e": median_of(e2e), "per_process": e2e,
            "checks": failed_checks, "attempted": attempted, "failed": failed,
            "steal": steal_share([0] * 10, steal_total), "discarded": discarded,
            "per_layer": {k: v for k, (v, _) in median_of(layer).items()} if trace else None}


# --- reporting -----------------------------------------------------------------

def all_metrics():
    """(name, unit, better, bound) of the gated then the reported metrics;
    bound is None for a reported one."""
    return metrics.END_TO_END + [(n, u, b, None) for n, u, b in metrics.REPORTED]


def print_result(res, label=""):
    raws = res["raws"]
    print("== %s seed %d%s: median of %d processes ==" % (
        raws[0]["workload"], raws[0]["seed"] // metrics.PROCESSES, label, len(raws)))
    for name, unit, _, bound in all_metrics():
        if name not in res["e2e"]:
            print("  %-18s n/a (fewer than %d samples beyond it)"
                  % (name, stats.MIN_SAMPLES_BEYOND))
            continue
        value, n = res["e2e"][name]
        each = " ".join("%.5g" % p[name][0] if name in p else "n/a"
                        for p in res["per_process"])
        print("  %-18s %14.6g %-6s n=%-8d [%s]%s" % (name, value, unit, n, each,
                                                    "" if bound else " not gated"))
    for i, raw in enumerate(raws):
        extra = []
        kinds = metrics.pause_kinds(raw)
        if kinds is not None:
            extra += ["%s pauses n=%d p50=%s" % (
                k, v["count"], "%.4g ms" % v["p50_ms"] if v["p50_ms"] is not None
                else "n/a (<%d beyond)" % stats.MIN_SAMPLES_BEYOND) for k, v in kinds.items()]
        split = metrics.state_split(raw)
        if split is not None:
            extra.append("state copied_mb=%.1f tracking_toggles=%d"
                         % (split["copied_mb"], split["tracking_toggles"]))
        if extra:
            print("  process %d (seed %d): %s" % (i, raw["seed"], "; ".join(extra)))
    print("  checks: " + ("all passed" if not res["checks"] else "; ".join(res["checks"])))
    print("  attempted=%d failed=%d steal=%.4f discarded (steal)=%s"
          % (res["attempted"], res["failed"], res["steal"],
             " ".join("%.3f" % d for d in res["discarded"]) or "none"))


def print_per_layer(res):
    raws = res["raws"]
    print("  per-layer (median of %d processes, measured window; 0 = layer unused):"
          % len(raws))
    units = dict(metrics.PER_LAYER)
    for name, value in res["per_layer"].items():
        print("    %-38s %14.6g %s" % (name, value, units[name]))
    unreadable = dict(metrics.UNREADABLE)
    if raws[0]["workload"] == "ingest-zgc-open":
        unreadable.update(metrics.INGEST_UNREADABLE)
    for name, why in unreadable.items():
        print("    %-38s not readable from outside: %s" % (name, why))
    trace = raws[0]["trace"]
    print("  spans of process 0 (count, total ms, self ms):")
    for name, (count, total, self_ms) in sorted(trace["spans"].items()):
        print("    %-38s %8d %12.3f %12.3f" % (name, count, total, self_ms))
    for name, ms in sorted(trace["phase_wall_ms"].items()):
        print("    %-38s %21.3f wall ms" % (name, ms))
    print("    %-38s %21.3f wall ms" % ("gc.pause (traced spans)", trace["pause_traced_ms"]))


def result_line(results, use_per_layer):
    correct = all(not r["checks"] for r in results)
    last = results[-1]
    if use_per_layer:
        body = {name: {"value": last["per_layer"][name], "unit": unit}
                for name, unit in metrics.GATED_PER_LAYER}
    else:
        body = {name: {"value": last["e2e"][name][0], "unit": unit}
                for name, unit, _, _ in metrics.END_TO_END}
    return json.dumps({"correct": correct, "attempted": last["attempted"],
                       "failed": last["failed"], "metrics": body})


def single(driver, a):
    if not a.trace:
        res = measure(driver, a.workload, a.seed, a.seconds)
        print_result(res)
        print(result_line([res], False))
        return
    plain = measure(driver, a.workload, a.seed, a.seconds)
    print_result(plain, " (untraced)")
    traced = measure(driver, a.workload, a.seed, a.seconds, trace=True)
    print_result(traced, " (traced)")
    print_per_layer(traced)
    print("  tracing overhead (traced vs untraced, same seed):")
    for name, unit, better, _ in all_metrics():
        if name not in plain["e2e"] or name not in traced["e2e"]:
            continue
        u, t = plain["e2e"][name][0], traced["e2e"][name][0]
        print("    %-18s %14.6g -> %14.6g %-6s (%+.1f%% worse)"
              % (name, u, t, unit, 100 * stats.worse_by(t, u, better)))
    print(result_line([plain, traced], True))


def summary(runs, name):
    values = [r["e2e"][name][0] for r in runs if name in r["e2e"]]
    return values, stats.summarize(values)


def repeat(driver, a):
    runs = []
    for i in range(a.repeat):
        res = measure(driver, a.workload, a.seed + i, a.seconds)
        print_result(res)
        runs.append(res)
    print("== %s: %d runs, seeds %d..%d ==" % (a.workload, a.repeat, a.seed, a.seed + a.repeat - 1))
    ok = True
    for name, unit, _, bound in all_metrics():
        values, s = summary(runs, name)
        if s is None:
            continue
        flag = bound is not None and name != "setup_s" and s["spread"] > bound
        ok = ok and not flag
        print("  %-18s %-6s median=%.6g q1=%.6g q3=%.6g spread=%.3f n=%d %s%s"
              % (name, unit, s["median"], s["q1"], s["q3"], s["spread"], len(values),
                 "bound=%.2f" % bound if bound is not None else "not gated",
                 "  OUTSIDE BOUND" if flag else ""))
    splits = [[metrics.state_split(raw) for raw in r["raws"]] for r in runs]
    if splits[0][0] is not None:
        print("  state per process (copied_mb/toggles): " + " | ".join(
            " ".join("%.0f/%d" % (s["copied_mb"], s["tracking_toggles"]) for s in run)
            for run in splits))
    print("  all runs correct: %s; gated spreads within bounds: %s"
          % (all(not r["checks"] for r in runs), ok))
    print(result_line(runs, False))


def ab(driver, a):
    other = build(a.ab_root)
    sides = {"A": [], "B": []}
    for i in range(a.pairs):
        seed = a.seed + i
        order = [("A", other), ("B", driver)] if i % 2 == 0 else [("B", driver), ("A", other)]
        for side, drv in order:
            sides[side].append(measure(drv, a.workload, seed, a.seconds))
    print("== A/B %s: A=%s, B=this tree, %d pairs ==" % (a.workload, a.ab_root, a.pairs))
    for name, unit, better, _ in all_metrics():
        pairs = [(x["e2e"][name][0], y["e2e"][name][0]) for x, y in zip(sides["A"], sides["B"])
                 if name in x["e2e"] and name in y["e2e"]]
        if not pairs:
            continue
        av, bv = [p[0] for p in pairs], [p[1] for p in pairs]
        cells = ["%s median=%.6g q1=%.6g q3=%.6g" % (side, s["median"], s["q1"], s["q3"])
                 for side, s in (("A", stats.summarize(av)), ("B", stats.summarize(bv)))]
        print("  %-18s %-6s %s | %s | B won %.0f%% of %d pairs: %s"
              % (name, unit, cells[0], cells[1], 100 * stats.pairs_won(av, bv, better),
                 len(pairs), stats.ab_verdict(av, bv, better)))
    print(result_line(sides["B"], False))


def main(argv):
    a = parse_args(argv)
    stray = refuse_rolp_env(os.environ)
    if stray:
        fail("refusing to run with ROLP_* variables set: " + ", ".join(stray), 2)
    driver = build()
    lock_path = driver.parent / "run.lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        rec = machine_record(driver)
        print("machine: rev=%s build=%s nproc=%s cpu=%r load1=%.2f"
              % (rec["rev"], rec["build"], rec["nproc"], rec["cpu"], rec["load1"]))
        if a.ab_root:
            ab(driver, a)
        elif a.repeat:
            repeat(driver, a)
        else:
            single(driver, a)


if __name__ == "__main__":
    main(sys.argv[1:])
