"""Tests of the benchmark's arithmetic and of BENCHMARK.json against the
metric table. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import benchstats
import metrics
import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 95), 95)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 99), 7.0)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(benchstats.percentile([5, 1, 4, 2, 3], 40), 2)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)
        with self.assertRaises(ValueError):
            benchstats.percentile([1], 0)

    def test_ten_samples_beyond_rule(self):
        # p95 of 200 samples has rank 190: exactly ten lie beyond it.
        values = list(range(200))
        self.assertEqual(benchstats.samples_beyond(200, 95), 10)
        self.assertEqual(benchstats.supported_percentile(values, 95), 189)
        # One sample fewer and only nine lie beyond: not reported.
        self.assertEqual(benchstats.samples_beyond(199, 95), 9)
        self.assertIsNone(benchstats.supported_percentile(values[:199], 95))

    def test_highest_supported_percentile(self):
        self.assertEqual(benchstats.highest_supported_percentile(list(range(1000)))[0], 99)
        self.assertEqual(benchstats.highest_supported_percentile(list(range(200)))[0], 95)
        self.assertEqual(benchstats.highest_supported_percentile(list(range(40)))[0], 75)
        self.assertIsNone(benchstats.highest_supported_percentile(list(range(15))))


class ExponentTest(unittest.TestCase):
    def test_exact_power_laws(self):
        sizes = [2000, 4000, 8000]
        for k in (1.0, 2.0, 1.3):
            times = [3e-9 * n ** k for n in sizes]
            self.assertAlmostEqual(benchstats.loglog_exponent(sizes, times), k)

    def test_least_squares_over_noisy_points(self):
        # log2 points (1, 0), (2, 2), (3, 3): slope 1.5 by least squares.
        sizes = [2, 4, 8]
        times = [1.0, 4.0, 8.0]
        self.assertAlmostEqual(benchstats.loglog_exponent(sizes, times), 1.5)

    def test_needs_two_distinct_sizes(self):
        with self.assertRaises(ValueError):
            benchstats.loglog_exponent([10], [1.0])
        with self.assertRaises(ValueError):
            benchstats.loglog_exponent([10, 10], [1.0, 2.0])


def span(name, start, end, parent=-1):
    return {"name": name, "start_us": start, "end_us": end, "parent": parent,
            "request": 0}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span("a", 10, 25)]), [15])

    def test_children_are_subtracted(self):
        spans = [span("root", 0, 100), span("x", 10, 30, 0), span("y", 50, 60, 0)]
        self.assertEqual(benchstats.self_times(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100), span("x", 10, 50, 0), span("y", 40, 70, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 40)

    def test_child_outlasting_parent_is_clipped(self):
        spans = [span("root", 0, 100), span("x", 90, 130, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0, 100), span("x", 0, 60, 0), span("z", 10, 20, 1)]
        self.assertEqual(benchstats.self_times(spans), [40, 50, 10])

    def test_aggregate_per_name(self):
        spans = [span("root", 0, 100), span("x", 10, 30, 0), span("x", 40, 45, 0)]
        agg = benchstats.aggregate_spans(spans)
        self.assertEqual(agg["x"]["count"], 2)
        self.assertEqual(agg["x"]["duration_us"], [20, 5])
        self.assertEqual(agg["root"]["self_us"], [75])


class BenchmarkJsonTest(unittest.TestCase):
    def test_file_matches_metric_table(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
        with open(path) as f:
            on_disk = json.load(f)
        self.assertEqual(on_disk, metrics.benchmark_json())

    def test_every_layer_metric_names_a_target(self):
        workloads = {w["name"] for w in metrics.WORKLOADS} | {"all"}
        e2e = {m["name"] for m in metrics.END_TO_END} | set(metrics.REPORTED_ONLY)
        for m in metrics.PER_LAYER:
            self.assertIn(m["workload"], workloads, m["name"])
            self.assertIn(m["target"], e2e, m["name"])

    def test_layer_metrics_are_computed(self):
        # Every per-layer name the table declares is produced from a
        # synthetic traced result, and nothing else is.
        result = synthetic_traced_result()
        computed = metrics.per_layer_values(result, benchstats.aggregate_spans(result["spans"]))
        self.assertEqual(set(computed), {m["name"] for m in metrics.PER_LAYER})
        for name, value in computed.items():
            self.assertTrue(math.isfinite(value), name)


class CorrectnessTest(unittest.TestCase):
    INFEASIBLE = "r%d (HF-native trace seed 107 (300-800 tasks), auto at 1.25 mc) infeasible: 1 violation(s)"

    def test_every_failure_is_unexpected_without_injection(self):
        for failure in ("r3 (CCSD ...) status: error: boom", "r3 (CCSD ...) infeasible: x",
                        "r3 (CCSD ...) mismatch: winner A != direct B"):
            result = {"failures": [failure], "injected_ids": []}
            self.assertEqual(run.unexpected_failures(result, False), [failure])
        self.assertEqual(run.unexpected_failures({"failures": []}, False), [])

    def test_injected_case_may_fail_only_as_infeasible(self):
        result = {"failures": [self.INFEASIBLE % 0, self.INFEASIBLE % 1440],
                  "injected_ids": [0, 1440]}
        self.assertEqual(run.unexpected_failures(result, True), [])
        other = "r7 (CCSD ...) status: shed: queue full"
        result["failures"].append(other)
        self.assertEqual(run.unexpected_failures(result, True), [other])
        wrong = {"failures": ["r0 (HF-native ...) mismatch: order differs"],
                 "injected_ids": [0]}
        self.assertEqual(len(run.unexpected_failures(wrong, True)), 1)

    def test_injected_case_must_fail(self):
        result = {"failures": [], "injected_ids": [0]}
        self.assertEqual(len(run.unexpected_failures(result, True)), 1)


def synthetic_traced_result():
    spans = []
    names = ["trace.read_trace", "service.protocol.read_request",
             "service.protocol.write_response", "service.protocol.read_response",
             "service.fingerprint.canonicalize", "model.bind", "core.compile",
             "service.handle", "heuristics.local_search", "core.evaluate_order",
             "core.prefix_resume", "exact.branch_bound", "milp.solve_order_milp"]
    for family in metrics.FAMILIES:
        names.append("heuristics." + family)
        for n in metrics.SCALING_SIZES:
            names.append("heuristics.%s.n%d" % (family, n))
    t = 0.0
    for name in names:
        duration = 100.0
        if ".n" in name:
            duration = float(name.rsplit(".n", 1)[1]) ** 2 / 1e3
        spans.append(span(name, t, t + duration))
        t += duration
    counters = {key: 5 for key in metrics.COUNTERS}
    counters["milp.instances"] = 6
    return {
        "phase_seconds": 10.0,
        "latencies_ms": [2.0, 3.0, 4.0],
        "traced_latencies_ms": [2.5, 3.5],
        "counters": counters,
        "samples": {"core.pool.queue_wait_ms": [0.01, 0.02]},
        "spans": spans,
    }


if __name__ == "__main__":
    unittest.main()
