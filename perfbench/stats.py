"""Statistics shared by the benchmark's single, repeat and A/B modes.

Everything here is pure (no I/O) so perfbench/tests can check it directly.
"""

import math
import statistics

# A percentile is printed only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    if n <= 0:
        return 0
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return n - rank


def percentile_printable(n, p):
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def nearest_rank(values, p):
    """Nearest-rank percentile (the smallest value with >= p% of samples at or
    below it). Returns None when the guard forbids printing it."""
    n = len(values)
    if not percentile_printable(n, p):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return ordered[rank - 1]


def summarize(values):
    """Median, first and third quartile, and spread = (q3 - q1) / median, the
    way the acceptance check computes them (statistics.quantiles, n=4)."""
    if not values:
        return None
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "spread": 0.0, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else math.inf
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def worse_by(new, old, better):
    """Relative change of `new` against `old`, positive when `new` is worse."""
    if old == 0:
        return 0.0 if new == old else math.inf
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def pairs_won(a_values, b_values, better):
    """Share of (a, b) pairs in which b is better than a. Ties count for
    neither side but stay in the denominator."""
    if len(a_values) != len(b_values) or not a_values:
        raise ValueError("pairs need equal, non-empty sides")
    won = 0
    for a, b in zip(a_values, b_values):
        if (b < a) if better == "lower" else (b > a):
            won += 1
    return won / len(a_values)


def ab_verdict(a_values, b_values, better):
    """The claim rule: b wins at least nine tenths of the pairs and the
    medians differ by more than a's own quartile distance."""
    share = pairs_won(a_values, b_values, better)
    sa, sb = summarize(a_values), summarize(b_values)
    gap = abs(sb["median"] - sa["median"])
    iqr = sa["q3"] - sa["q1"]
    if share >= 0.9 and gap > iqr:
        return "b better"
    if pairs_won(b_values, a_values, better) >= 0.9 and gap > iqr:
        return "b worse"
    return "no claim"


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    s, e = span
    clipped = [(max(s, cs), min(e, ce)) for cs, ce in children if ce > s and cs < e]
    return (e - s) - union_length(clipped)


def pause_summary(pauses):
    """Per-kind count and guarded p50 (ms) of pause records
    ({"kind", "dur_ns"} dicts)."""
    kinds = {}
    for p in pauses:
        kinds.setdefault(p["kind"], []).append(p["dur_ns"] / 1e6)
    out = {}
    for kind, durs in sorted(kinds.items()):
        out[kind] = {"count": len(durs), "p50_ms": nearest_rank(durs, 50)}
    return out
