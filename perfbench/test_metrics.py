"""Tests for the benchmark's metric math and its declared metric set.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(metrics.percentile(list(range(999)), 99))
        self.assertIsNotNone(metrics.percentile(list(range(1000)), 99))

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(metrics.percentile(list(range(19)), 50))
        self.assertEqual(metrics.percentile(list(range(21)), 50), 10)

    def test_interpolates_between_order_statistics(self):
        xs = [float(i) for i in range(1, 1001)]
        self.assertAlmostEqual(metrics.percentile(xs, 50), 500.5)
        self.assertAlmostEqual(metrics.percentile(xs, 99), 990.01)

    def test_order_of_samples_does_not_matter(self):
        xs = list(range(2000))
        self.assertEqual(metrics.percentile(xs, 99), metrics.percentile(xs[::-1], 99))

    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(1500, 50), 750)
        self.assertFalse(metrics.percentile_allowed(0, 50))


class WindowedPercentile(unittest.TestCase):
    def test_one_window_is_the_plain_percentile(self):
        xs = [float(i % 97) for i in range(1500)]
        self.assertEqual(metrics.windowed_percentile(xs, 99), metrics.percentile(xs, 99))

    def test_one_burst_moves_one_window_only(self):
        xs = [1.0] * 4000
        for i in range(100, 160):  # a stall delays 60 consecutive samples
            xs[i] = 50.0
        self.assertEqual(metrics.percentile(xs, 99), 50.0)
        self.assertEqual(metrics.windowed_percentile(xs, 99), 1.0)

    def test_too_few_samples(self):
        self.assertIsNone(metrics.windowed_percentile([1.0] * 500, 99))


class RatioCarriesItsBase(unittest.TestCase):
    def test_value_and_base(self):
        r = metrics.Ratio(3, 4)
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.as_dict(), {"value": 0.75, "num": 3, "of": 4})

    def test_empty_base_has_no_value(self):
        r = metrics.Ratio(0, 0)
        self.assertIsNone(r.value)
        self.assertEqual(r.as_dict()["of"], 0)


class NameValidation(unittest.TestCase):
    def test_accepts(self):
        for name in ["setup_s", "wcl.lat_crypto_share", "groups-1k", "net.send_ns", "9x"]:
            self.assertTrue(metrics.valid_name(name), name)

    def test_rejects(self):
        for name in ["", "_lead", ".lead", "a b", "a/b", "µs", "x" * 65, None, 3]:
            self.assertFalse(metrics.valid_name(name), name)


class DeclaredMetrics(unittest.TestCase):
    """BENCHMARK.json and the interaction map describe the same metric set."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "interaction_map.json")) as f:
            cls.imap = json.load(f)

    def test_names_are_valid_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        names += [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        for n in names:
            self.assertTrue(metrics.valid_name(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_every_per_layer_metric_is_mapped(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        mapped = self.imap["per_layer"]
        self.assertEqual(set(mapped), {m["name"] for m in self.bench["per_layer"]})
        for m in self.bench["per_layer"]:
            entry = mapped[m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertEqual(entry["layer"], m["name"].split(".")[0], m["name"])
            self.assertTrue(entry["moves"], m["name"])
            for target in entry["moves"]:
                self.assertIn(target["metric"], e2e, m["name"])
                self.assertIn(target["workload"], workloads, m["name"])
            for w in entry["flat_on"]:
                self.assertIn(w, workloads, m["name"])

    def test_every_workload_has_a_reason(self):
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], self.imap["workloads"])
            self.assertTrue(self.imap["workloads"][w["name"]])


if __name__ == "__main__":
    unittest.main()
