"""Tests for the benchmark's statistics, parsing and metric code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class GuardTest(unittest.TestCase):
    def test_samples_beyond_nearest_rank(self):
        self.assertEqual(stats.samples_beyond(100, 50), 50)
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(1000, 99.9), 1)
        self.assertEqual(stats.samples_beyond(0, 50), 0)

    def test_printable_needs_ten_beyond(self):
        self.assertTrue(stats.percentile_printable(20, 50))
        self.assertFalse(stats.percentile_printable(19, 50))
        self.assertTrue(stats.percentile_printable(1000, 99))
        self.assertFalse(stats.percentile_printable(999, 99))
        self.assertFalse(stats.percentile_printable(9999, 99.9))
        self.assertTrue(stats.percentile_printable(10000, 99.9))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 90), 90)
        self.assertIsNone(stats.nearest_rank(values, 99))
        self.assertEqual(stats.nearest_rank(list(reversed(values)), 50), 50)


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = stats.summarize(values)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, med, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / med)

    def test_single_value(self):
        self.assertEqual(stats.summarize([2.0])["spread"], 0.0)

    def test_worse_by_direction(self):
        self.assertAlmostEqual(stats.worse_by(110, 100, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(90, 100, "higher"), 0.1)
        self.assertAlmostEqual(stats.worse_by(90, 100, "lower"), -0.1)


class AbTest(unittest.TestCase):
    def test_pairs_won_ties_count_for_neither(self):
        self.assertEqual(stats.pairs_won([2, 2, 2, 2], [1, 2, 3, 1], "lower"), 0.5)
        self.assertEqual(stats.pairs_won([2, 2], [3, 3], "higher"), 1.0)
        with self.assertRaises(ValueError):
            stats.pairs_won([1], [1, 2], "lower")

    def test_verdict_needs_nine_tenths_and_a_gap(self):
        a = [10.0 + 0.1 * i for i in range(10)]
        self.assertEqual(stats.ab_verdict(a, [x - 5 for x in a], "lower"), "b better")
        self.assertEqual(stats.ab_verdict(a, [x + 5 for x in a], "lower"), "b worse")
        # Wins every pair, but by less than a's own quartile distance.
        self.assertEqual(stats.ab_verdict(a, [x - 0.01 for x in a], "lower"), "no claim")


class SpanTest(unittest.TestCase):
    def test_union_and_self_time(self):
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(stats.self_time((0, 10), [(2, 4), (3, 5), (9, 12)]), 6)
        self.assertEqual(stats.self_time((0, 10), []), 10)

    def test_trace_figures(self):
        def x(name, ts_us, dur_us, tid=1):
            return {"name": name, "ph": "X", "tid": tid, "ts": ts_us, "dur": dur_us}
        events = [
            x("bench.run_service", 0, 100),
            x("bench.load_phase", 5, 20),
            dict(x("gc.pause", 50, 10), args={"v": 1}), x("gc.phase.scan", 51, 2),
            x("gc.phase.evacuate", 53, 5),
            dict(x("gc.pause", 2, 3), args={"v": 0}),  # before the window: ignored
            x("rolp.inference.analyze", 70, 4, tid=2),
            {"name": "service.shed", "ph": "i", "tid": 1, "ts": 80},
        ]
        t = metrics.trace_figures(events, window_start_ns=40_000)
        self.assertAlmostEqual(t["pause_other_ms"], 0.003)
        self.assertAlmostEqual(t["inference_ms"], 0.004)
        self.assertEqual(t["pause_kinds"], {"mixed": 1})
        count, total, self_ms = t["spans"]["bench.run_service"]
        self.assertEqual(count, 1)
        self.assertAlmostEqual(total, 0.1)
        self.assertAlmostEqual(self_ms, 0.08)

    def test_pause_summary_guards_p50(self):
        pauses = [{"kind": "young", "dur_ns": 1_000_000}] * 20 + [{"kind": "mixed",
                                                                  "dur_ns": 5_000_000}] * 3
        s = stats.pause_summary(pauses)
        self.assertEqual(s["young"], {"count": 20, "p50_ms": 1.0})
        self.assertEqual(s["mixed"], {"count": 3, "p50_ms": None})


def kv_raw(**over):
    raw = {
        "workload": "kv-g1-open", "seed": 1, "measured_ns": 10 ** 10, "scheduled": 1000,
        "setup_ns": 2 * 10 ** 9,
        "attempted": 1000, "ok": 998, "rss_peak_bytes": 64 * 2 ** 20,
        "service": {"offered": 1000, "completed_ok": 998, "deadline_miss": 0, "rejected": 1,
                    "shed_queue_full": 1, "shed_deadline": 0, "shed_drain": 0,
                    "slo_total": 1000},
        "wrapper": {"executed": 998, "completed_ids": 998, "out_of_range": 0, "early": 0},
        "latency": {"n": 5000, "p50_ns": 150_000, "p99_ns": 900_000, "p99.9_ns": 2_000_000},
        "pauses": [{"kind": "young", "start_ns": i, "dur_ns": 1_000_000 + i, "copied": 2 ** 20}
                   for i in range(30)],
        "vm": {"survivor_tracking_toggles": 3},
    }
    raw.update(over)
    return raw


class MetricTest(unittest.TestCase):
    def test_kv_checks_pass_and_catch_lost_requests(self):
        self.assertEqual(metrics.checks(kv_raw()), [])
        lost = kv_raw()
        lost["service"] = dict(lost["service"], shed_queue_full=0)
        self.assertEqual(len(metrics.checks(lost)), 1)
        self.assertEqual(len(metrics.checks(kv_raw(attempted=999))), 1)

    def test_end_to_end_values_and_counts(self):
        e2e = metrics.end_to_end(kv_raw())
        gated = {m[0] for m in metrics.END_TO_END}
        self.assertTrue(gated <= set(e2e) <= gated | {m[0] for m in metrics.REPORTED})
        # 5000 latencies and 30 pauses leave fewer than ten beyond these.
        self.assertNotIn("latency_p999_us", e2e)
        self.assertNotIn("pause_p90_ms", e2e)
        self.assertEqual(e2e["gc_pause_frac"][1], 30)
        self.assertEqual(e2e["setup_s"], (2.0, 1))
        self.assertEqual(e2e["success_rate"], (0.998, 1000))
        self.assertEqual(e2e["latency_p99_us"], (900.0, 5000))
        self.assertAlmostEqual(e2e["pause_p50_ms"][0], 1.000014)
        self.assertEqual(e2e["pause_p50_ms"][1], 30)

    def test_end_to_end_refuses_thin_percentiles(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(kv_raw(pauses=kv_raw()["pauses"][:19]))

    def test_state_split(self):
        self.assertEqual(metrics.state_split(kv_raw()), {"copied_mb": 30.0,
                                                         "tracking_toggles": 3})


class ParsingTest(unittest.TestCase):
    def test_driver_arguments(self):
        a = run.parse_args(["--workload", "kv-g1-open", "--seed", "7", "--seconds", "20",
                            "--trace", "1"])
        self.assertEqual((a.workload, a.seed, a.seconds, a.trace), ("kv-g1-open", 7, 20, 1))
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "nope"])
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "kv-g1-open", "--seconds", "0"])

    def test_refuses_rolp_environment(self):
        self.assertEqual(run.refuse_rolp_env({"PATH": "/bin", "ROLP_FAULTS": "x"}),
                         ["ROLP_FAULTS"])
        self.assertEqual(run.refuse_rolp_env({"PATH": "/bin"}), [])

    def test_median_across_processes(self):
        rows = [{"m": (3.0, 10)}, {"m": (1.0, 10)}, {"m": (2.0, 5)}]
        self.assertEqual(run.median_of(rows), {"m": (2.0, 25)})

    def test_steal_share(self):
        before = [0] * 10
        after = [10, 0, 10, 70, 0, 0, 0, 10, 0, 0]
        self.assertAlmostEqual(run.steal_share(before, after), 0.1)

    def test_result_line_shape(self):
        res = {"e2e": metrics.end_to_end(kv_raw()), "checks": [], "attempted": 1000,
               "failed": 2}
        line = json.loads(run.result_line([res], False))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"]["latency_p50_us"], {"value": 150.0, "unit": "us"})

    def test_benchmark_json_matches_definitions(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], metrics.GATED_WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(w["why"], metrics.WORKLOADS[w["name"]])
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         metrics.GATED_PER_LAYER)
        self.assertLessEqual(metrics.UNGATED_ONLY, {name for name, _ in metrics.PER_LAYER})
        for m in spec["per_layer"]:
            self.assertEqual(m["better"] == "higher", m["name"] in metrics.HIGHER_IS_BETTER)


if __name__ == "__main__":
    unittest.main()
