"""Tests of the benchmark's own statistics and manifest.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


class PercentileTest(unittest.TestCase):
    def test_ten_beyond_rule(self):
        self.assertTrue(stats.supports(99, 1000))
        self.assertFalse(stats.supports(99, 999))
        self.assertTrue(stats.supports(95, 200))
        self.assertFalse(stats.supports(95, 199))
        self.assertTrue(stats.supports(50, 20))
        self.assertFalse(stats.supports(50, 19))
        self.assertFalse(stats.supports(50, 0))

    def test_nearest_rank(self):
        samples = list(range(1000, 0, -1))  # unsorted on purpose
        self.assertEqual(stats.percentile(samples, 99), 990)
        self.assertEqual(stats.percentile(samples, 50), 500)
        with self.assertRaises(ValueError):
            stats.percentile(samples[:999], 99)


def point(p99, rejected=0, drain=0, n=1000):
    """A synthetic latency table whose p99 is exactly `p99`."""
    return {"latencies": [1] * (n - 11) + [p99] + [10 * p99] * 10,
            "rejected": rejected, "drain_cycles": drain}


class SloRateTest(unittest.TestCase):
    def test_highest_rate_meeting_the_limit(self):
        points = {100: point(500), 200: point(900), 400: point(2000)}
        self.assertEqual(stats.slo_rate(points, 1000), 200)

    def test_rejects_or_backlog_disqualify(self):
        points = {100: point(500), 200: point(900, rejected=1),
                  300: point(900, drain=5000)}
        self.assertEqual(stats.slo_rate(points, 1000), 100)

    def test_none_meeting_is_zero(self):
        self.assertEqual(stats.slo_rate({100: point(5000)}, 1000), 0)

    def test_too_few_samples_fail(self):
        self.assertEqual(stats.slo_rate({100: point(5, n=500)}, 1000), 0)


def span(name, start, end, parent):
    return {"name": name, "tag": "", "start": start, "end": end,
            "parent": parent, "job": -1}


class SpanTest(unittest.TestCase):
    def setUp(self):
        self.spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.inner", 2.0, 3.0, 1),
            span("b", 5.0, 9.0, 0),
        ]

    def test_self_times(self):
        self.assertEqual(stats.self_times(self.spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 10, -1), span("x", 1, 6, 0),
                 span("y", 4, 8, 0)]
        self.assertEqual(stats.self_times(spans)[0], 3.0)

    def test_exclusive_times_sum_to_wall(self):
        self.assertAlmostEqual(
            stats.conservation_error(self.spans, 0, 10.0), 0.0)
        self.assertAlmostEqual(
            stats.conservation_error(self.spans, 0, 12.5), 0.2)

    def test_layer_table(self):
        table = stats.layer_table(self.spans, stats.subtree(self.spans, 0))
        self.assertEqual(table["b"], [4.0, 1])
        self.assertEqual(stats.subtree(self.spans, 1), [1, 2])

    def test_nesting(self):
        self.assertEqual(stats.nesting_errors(self.spans), [])
        bad = self.spans + [span("late", 9.5, 10.5, 3)]
        self.assertEqual(len(stats.nesting_errors(bad)), 1)


def pattern(name):
    """A metric name with its app, rate and tenant parts generalised,
    as README.md's table writes it."""
    name = re.sub(r"\.(%s)$" % "|".join(stats.APPS), ".<App>", name)
    name = re.sub(r"\.(%s)\." % "|".join(stats.TENANTS), ".<tenant>.",
                  name)
    return re.sub(r"\.(lo|mid|hi)$", ".<rate>", name)


class ManifestTest(unittest.TestCase):
    def test_schema(self):
        self.assertEqual(stats.schema_errors(stats.manifest()), [])

    def test_every_metric_is_named_with_a_unit(self):
        doc = stats.manifest()
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(m["unit"])

    def test_schema_catches_mistakes(self):
        doc = stats.manifest()
        doc["per_layer"].append({"name": "bad name", "unit": "",
                                 "better": "up"})
        doc["end_to_end"][0]["bound"] = 0.01
        self.assertEqual(len(stats.schema_errors(doc)), 4)

    def test_committed_manifest_is_current(self):
        committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(committed, stats.manifest())

    def test_readme_maps_every_layer_metric(self):
        readme = (HERE / "README.md").read_text()
        missing = [pattern(name)
                   for name, *_ in stats.END_TO_END + stats.PER_LAYER
                   if "`%s`" % pattern(name) not in readme]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main()
