"""Unit tests for the benchmark's metric arithmetic (run.py).

    python3 -m unittest discover -s perfbench/tests
"""
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(30, 0, -1))
        value, percentile, n = run.tail(values)
        self.assertEqual(value, 20)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(percentile, 100.0 * 20 / 30)
        self.assertEqual(n, 30)

    def test_large_sample_reaches_high_percentile(self):
        value, percentile, n = run.tail([float(i) for i in range(1000)])
        self.assertEqual(value, 989.0)
        self.assertAlmostEqual(percentile, 99.0)
        self.assertEqual(n, 1000)

    def test_ties_rank_by_position(self):
        values = [1.0] * 5 + [2.0] * 20
        value, percentile, _ = run.tail(values)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(percentile, 60.0)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail(list(range(10)))

    def test_tail_differs_from_median_above_21_samples(self):
        values = list(range(22))
        self.assertGreater(run.tail(values)[0], run.median(values))


class SpanSelfTime(unittest.TestCase):
    # rows: [track, name, start_ns, end_ns, parent_index, program]
    def test_self_time_subtracts_children(self):
        tree = run.SpanTree([
            [0, "compile", 0, 100, -1, 7],
            [0, "lang.parse", 10, 30, 0, 7],
            [0, "motion.pcm", 40, 90, 0, -1],
            [0, "ir.validate", 50, 60, 2, -1],
        ])
        self.assertEqual(tree.self_ns(0, 0), 100 - 20 - 50)
        self.assertEqual(tree.self_ns(0, 2), 50 - 10)
        self.assertEqual(tree.self_ns(0, 3), 10)
        self.assertEqual(sorted(tree.descendants(0, 0)), [1, 2, 3])

    def test_overlapping_children_counted_once(self):
        tree = run.SpanTree([
            [0, "root", 0, 100, -1, -1],
            [0, "a", 10, 50, 0, -1],
            [0, "b", 40, 70, 0, -1],
        ])
        self.assertEqual(tree.self_ns(0, 0), 100 - 60)

    def test_tracks_are_independent(self):
        tree = run.SpanTree([
            [0, "compile", 0, 10, -1, 0],
            [1, "compile", 0, 30, -1, 1],
            [1, "lang.parse", 5, 10, 0, 1],
        ])
        self.assertEqual(tree.self_ns(0, 0), 10)
        self.assertEqual(tree.self_ns(1, 0), 25)
        self.assertEqual(len(list(tree.roots("compile"))), 2)

    def test_union_length(self):
        self.assertEqual(run.union_length([]), 0)
        self.assertEqual(run.union_length([(0, 5), (3, 8), (10, 12)]), 10)


class GeometricMean(unittest.TestCase):
    def test_geomean_of_ratios(self):
        # (3+1)/(1+1) = 2 and (0+1)/(3+1) = 1/4: geometric mean sqrt(1/2).
        self.assertAlmostEqual(run.geomean_ratio([(1, 3), (3, 0)]), math.sqrt(0.5))

    def test_unchanged_paths_give_one(self):
        self.assertAlmostEqual(run.geomean_ratio([(0, 0), (5, 5), (9, 9)]), 1.0)

    def test_order_independent(self):
        pairs = [(4, 2), (7, 9), (1, 1), (10, 3)]
        self.assertAlmostEqual(run.geomean_ratio(pairs),
                               run.geomean_ratio(list(reversed(pairs))))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.geomean_ratio([])


class TenureGrowth(unittest.TestCase):
    def test_last_tenth_over_first_tenth_per_worker(self):
        jobs = [[w, i, 1.0 + (i >= 90)] for w in (0, 1) for i in range(100)]
        self.assertAlmostEqual(run.tenure_growth(jobs), 2.0)

    def test_order_is_by_position_not_input_order(self):
        jobs = [[0, 99 - i, float(99 - i)] for i in range(100)]
        self.assertGreater(run.tenure_growth(jobs), 1.0)


class PerProgram(unittest.TestCase):
    # rows: [program, ms, host speed factor]
    ROWS = [[0, 10.0, 1.0], [1, 4.0, 0.5], [0, 30.0, 0.5], [1, 2.0, 1.0],
            [0, 12.0, 1.0], [1, 100.0, 0.5]]

    def test_median_over_rounds_of_scaled_times(self):
        self.assertEqual(run.per_program(self.ROWS), [12.0, 2.0])

    def test_unscaled(self):
        self.assertEqual(run.per_program(self.ROWS, scaled=False), [12.0, 4.0])

    def test_fastest_round(self):
        self.assertEqual(run.per_program(self.ROWS, pick=min), [10.0, 2.0])


if __name__ == "__main__":
    unittest.main()
