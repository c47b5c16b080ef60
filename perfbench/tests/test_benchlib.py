"""Tests of the benchmark's pure helpers and of its declared metrics.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import benchlib  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Quantiles(unittest.TestCase):
    def test_linear_interpolation_between_ranks(self):
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(benchlib.quantile([4, 1, 3, 2], 0.0), 1)
        self.assertEqual(benchlib.quantile([4, 1, 3, 2], 1.0), 4)
        self.assertAlmostEqual(benchlib.quantile([4, 1, 3, 2], 0.95), 3.85)
        self.assertEqual(benchlib.quantile([7.0], 0.95), 7.0)
        with self.assertRaises(ValueError):
            benchlib.quantile([], 0.5)

    def test_p95_of_two_hundred_samples_leaves_ten_beyond(self):
        xs = list(range(1, 201))
        p95 = benchlib.quantile(xs, 0.95)
        self.assertAlmostEqual(p95, 190.05)
        self.assertEqual(sum(1 for x in xs if x > p95), 10)


class ExperimentLatencies(unittest.TestCase):
    def test_running_to_wrote_per_experiment(self):
        events = [
            (0.0, "running fig01 (2 threads)...\n"),
            (0.5, "wrote out/fig01.json\n"),
            (0.5, "running fig03 (2 threads)...\n"),
            (2.0, "wrote out/fig03.json\n"),
            (2.0, "running fig04 (2 threads)...\n"),
            (2.1, "oracle cache: 0 hit(s)\n"),
        ]
        got = benchlib.experiment_latencies(events)
        self.assertEqual(set(got), {"fig01", "fig03"})
        self.assertAlmostEqual(got["fig01"], 0.5)
        self.assertAlmostEqual(got["fig03"], 1.5)

    def test_index_and_unknown_writes_are_ignored(self):
        events = [(0.0, "wrote out/index.json (18 reports)\n"), (1.0, "wrote out/tab01.json\n")]
        self.assertEqual(benchlib.experiment_latencies(events), {})


class CompletionTimes(unittest.TestCase):
    def test_reports_count_from_the_process_start_in_landing_order(self):
        start = 1_000_000_000
        mtimes = [start + 50_000_000, start + 20_000_000, start + 80_000_000]
        self.assertEqual(benchlib.completion_ms(mtimes, start), [20.0, 50.0, 80.0])
        self.assertEqual(benchlib.completion_ms([], start), [])


class ResultLine(unittest.TestCase):
    def expected(self, rows):
        return {m["name"]: m["unit"] for m in rows}

    def sample_metrics(self, rows):
        return {m["name"]: benchlib.metric(1.25 + i, m["unit"]) for i, m in enumerate(rows)}

    def test_round_trip_of_end_to_end_and_per_layer_lines(self):
        for rows in (SPEC["end_to_end"], SPEC["per_layer"]):
            metrics = self.sample_metrics(rows)
            line = benchlib.result_line(412, 0, metrics)
            doc = benchlib.parse_result_line(line, self.expected(rows))
            self.assertEqual(list(doc), ["correct", "attempted", "failed", "metrics"])
            self.assertIs(doc["correct"], True)
            self.assertEqual(doc["metrics"], metrics)
            self.assertEqual("\n" in line, False)

    def test_failures_make_the_run_incorrect(self):
        metrics = self.sample_metrics(SPEC["end_to_end"])
        doc = benchlib.parse_result_line(benchlib.result_line(10, 2, metrics), self.expected(SPEC["end_to_end"]))
        self.assertIs(doc["correct"], False)
        self.assertEqual((doc["attempted"], doc["failed"]), (10, 2))

    def test_missing_or_mislabelled_metrics_are_refused(self):
        rows = SPEC["end_to_end"]
        metrics = self.sample_metrics(rows)
        del metrics["wall_s"]
        with self.assertRaises(ValueError):
            benchlib.parse_result_line(benchlib.result_line(1, 0, metrics), self.expected(rows))
        metrics = self.sample_metrics(rows)
        metrics["wall_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            benchlib.parse_result_line(benchlib.result_line(1, 0, metrics), self.expected(rows))
        with self.assertRaises(ValueError):
            benchlib.result_line(1, 0, {"x": benchlib.metric(float("nan"), "s")})


class DeclaredMetrics(unittest.TestCase):
    def test_names_units_and_bounds_follow_the_contract(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_every_per_layer_metric_has_a_prediction(self):
        layers = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(set(layers), per_layer)
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for name, p in layers.items():
            for pair in p["moves"] + p["not"]:
                metric, _, rest = pair.partition("@")
                workload = rest.split()[0] if rest else ""
                if "@" in pair:
                    self.assertIn(metric, e2e, name)
                    self.assertIn(workload, workloads, name)


if __name__ == "__main__":
    unittest.main()
