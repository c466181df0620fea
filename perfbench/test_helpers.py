"""Self-tests of the benchmark's own helpers (no program import needed).

Run with ``python3 -m pytest perfbench/test_helpers.py`` or
``python3 perfbench/test_helpers.py``.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    ReferenceClock,
    percentile,
    scale_times,
    tail_percentile,
)
from tracing import Tracer, by_name, count_under, self_times  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(999), 95.0)
        self.assertEqual(tail_percentile(200), 95.0)
        self.assertEqual(tail_percentile(199), 90.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(20), 50.0)

    def test_capped_at_p99_and_median_fallback(self):
        self.assertEqual(tail_percentile(100_000), 99.0)
        # Fewer than 20 samples: no tail can be told from noise.
        self.assertEqual(tail_percentile(5), 50.0)

    def test_percentile_interpolates(self):
        self.assertAlmostEqual(percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertAlmostEqual(percentile(list(range(101)), 99), 99.0)
        with self.assertRaises(ValueError):
            percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union [1, 6] is covered
            ["a.leaf", 2.0, 3.0, 1, 0],
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 3.0, 1.0])

    def test_child_clipped_to_parent(self):
        spans = [["p", 0.0, 2.0, -1, 0], ["c", 1.5, 3.0, 0, 0]]
        self.assertEqual(self_times(spans)[0], 1.5)

    def test_tables_and_ancestry(self):
        spans = [
            ["lp.maxstretch", 0.0, 4.0, -1, 0],
            ["lp.solve", 0.5, 1.0, 0, 0],
            ["lp.native", 0.6, 0.9, 1, 0],
            ["lp.solve", 5.0, 6.0, -1, 0],
        ]
        table = by_name(spans)
        self.assertEqual(table["lp.solve"]["count"], 2)
        self.assertAlmostEqual(table["lp.solve"]["self"], 0.2 + 1.0)
        self.assertAlmostEqual(table["lp.maxstretch"]["self"], 3.5)
        self.assertEqual(count_under(spans, "lp.solve", "lp.maxstretch"), 1)
        self.assertEqual(count_under(spans, "lp.native", "lp.maxstretch"), 1)

    def test_tracer_nesting_reentry_and_results(self):
        tracer = Tracer()

        def leaf(x):
            return x + 1

        traced_leaf = tracer.wrap("leaf", leaf, keep=lambda out: out * 10)

        def outer(n):
            return traced_outer(n - 1) if n else traced_leaf(0)

        traced_outer = tracer.wrap("outer", outer)
        tracer.unit = 7
        self.assertEqual(traced_outer(3), 1)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names, ["outer", "leaf"])  # re-entry records no span
        self.assertEqual(tracer.spans[1][3], 0)
        self.assertEqual([span[4] for span in tracer.spans], [7, 7])
        self.assertEqual(tracer.results["leaf"], [10])
        self.assertTrue(all(span[2] >= span[1] for span in tracer.spans))


class ReferenceScalingTest(unittest.TestCase):
    def test_unit_scaled_by_mean_of_its_samples(self):
        clock = ReferenceClock()
        clock.samples = {0: [REFERENCE_NOMINAL_S, 3 * REFERENCE_NOMINAL_S],
                         1: [4 * REFERENCE_NOMINAL_S]}
        self.assertAlmostEqual(clock.factor(0), 0.5)
        self.assertAlmostEqual(clock.factor(1), 0.25)
        self.assertEqual(scale_times([2.0, 4.0], clock), [1.0, 1.0])
        self.assertEqual(len(clock.all_samples()), 3)

    def test_machine_at_nominal_speed_is_unscaled(self):
        clock = ReferenceClock()
        clock.samples = {0: [REFERENCE_NOMINAL_S] * 2}
        self.assertEqual(scale_times([1.25], clock), [1.25])

    def test_unit_without_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            ReferenceClock().factor(0)

    def test_boundary_sample_is_filed_under_both_units(self):
        clock = ReferenceClock()
        value = clock.sample(3, 4)
        self.assertGreater(value, 0.0)
        self.assertEqual(clock.samples, {3: [value], 4: [value]})


if __name__ == "__main__":
    unittest.main()
