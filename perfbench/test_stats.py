#!/usr/bin/env python3
"""Tests of the benchmark's own statistics and oracle.

    python3 perfbench/test_stats.py
"""

import unittest

import stats


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quantile_interpolates_between_order_statistics(self):
        values = list(range(11))  # 0..10
        self.assertAlmostEqual(stats.quantile(values, 0.9), 9.0)
        self.assertAlmostEqual(stats.quantile([0, 10], 0.25), 2.5)

    def test_quartiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(q1, 3.25)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 7.75)
        self.assertEqual(q2, stats.median(values))

    def test_empty_quantile_is_nan(self):
        value = stats.quantile([], 0.5)
        self.assertNotEqual(value, value)


class ReportablePercentileTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.reportable_percentile(100), 90)
        self.assertEqual(stats.reportable_percentile(1000), 99)

    def test_falls_back_to_a_lower_percentile(self):
        # 50 samples: p90 has 5 beyond it, p75 has 13.
        self.assertEqual(stats.samples_beyond(50, 90), 5)
        self.assertEqual(stats.reportable_percentile(50), 75)

    def test_too_few_samples(self):
        self.assertIsNone(stats.reportable_percentile(10))
        self.assertIsNone(stats.reportable_percentile(0))


class LimitMetTest(unittest.TestCase):
    def test_failed_and_refused_requests_are_misses(self):
        requests = [
            (10.0, 20.0, True),    # met
            (5.0, 6.0, False),     # fast but failed: miss
            (-1.0, -1.0, False),   # refused, no result: miss
            (300.0, 400.0, True),  # slow: miss
        ]
        self.assertEqual(stats.limit_met_share(requests, 100.0), 0.25)

    def test_all_met(self):
        self.assertEqual(stats.limit_met_share([(1.0, 2.0, True)], 5.0), 1.0)


def metrics(**overrides):
    m = {"duration": 180.0, "any_hot_time": 12.5, "peak_temp": 360.25,
         "chip_energy": 4200.0, "pump_energy": 35.0, "offered_work": 900.0,
         "lost_work": 3.5, "avg_flow_fraction": 0.75, "migrations": 42,
         "core_hot_time": [1.0, 2.0, 0.0]}
    m.update(overrides)
    return m


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.reference = {"a": metrics()}

    def test_identical_output_is_bitwise_equal(self):
        self.assertEqual(stats.oracle([("a", metrics())], self.reference),
                         (0, 1, []))

    def test_perturbation_within_tolerance_passes(self):
        out = metrics(peak_temp=360.25 * (1 + 0.9e-6))
        mismatches, bitwise, _ = stats.oracle([("a", out)], self.reference)
        self.assertEqual((mismatches, bitwise), (0, 0))

    def test_perturbation_just_beyond_tolerance_is_flagged(self):
        out = metrics(peak_temp=360.25 * (1 + 1.1e-6))
        mismatches, _, messages = stats.oracle([("a", out)], self.reference)
        self.assertEqual(mismatches, 1)
        self.assertIn("peak_temp", messages[0])

    def test_discrete_fields_must_match_exactly(self):
        out = metrics(migrations=43)
        self.assertEqual(stats.oracle([("a", out)], self.reference)[0], 1)

    def test_per_core_values_are_checked(self):
        out = metrics(core_hot_time=[1.0, 2.0 * (1 + 2e-6), 0.0])
        self.assertEqual(stats.oracle([("a", out)], self.reference)[0], 1)
        out = metrics(core_hot_time=[1.0, 2.0])
        self.assertEqual(stats.oracle([("a", out)], self.reference)[0], 1)

    def test_missing_reference_is_a_mismatch(self):
        self.assertEqual(stats.oracle([("b", metrics())], self.reference)[0],
                         1)


class VerdictTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        self.assertEqual(stats.problems(0, 8, 8, 0), [])

    def test_failed_request_makes_the_run_incorrect(self):
        # A refused 8-scenario request: counted as failed, and its outputs
        # never reach the oracle, which sees no mismatch.
        reasons = stats.problems(1, 16, 8, 0)
        self.assertEqual(len(reasons), 2)
        self.assertIn("threw or were refused", reasons[0])

    def test_missing_outputs_make_the_run_incorrect(self):
        self.assertNotEqual(stats.problems(0, 105, 104, 0), [])
        self.assertNotEqual(stats.problems(0, 0, 0, 0), [])

    def test_mismatch_makes_the_run_incorrect(self):
        self.assertNotEqual(stats.problems(0, 8, 8, 1), [])


if __name__ == "__main__":
    unittest.main()
