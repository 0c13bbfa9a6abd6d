"""Tests for ledger/estimators.py on synthetic timing series.

Run from the repository root:  python3 -m unittest discover -s ledger
"""

import random
import unittest

import estimators


def series(n, base, slow_factor, slow_from, slow_to, seed, jitter=0.02):
    """n timings around `base` (+`jitter` share); [slow_from, slow_to) slowed."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        t = base * (1.0 + jitter * rng.random())
        if slow_from <= i < slow_to:
            t *= slow_factor
        out.append(t)
    return out


class MedianTest(unittest.TestCase):
    def test_short_slow_episode_barely_moves_the_median(self):
        calm = series(40, 0.110, 1.5, 0, 0, seed=1)
        for start in (0, 10, 25):
            slowed = series(40, 0.110, 1.5, start, start + 10, seed=1)
            self.assertAlmostEqual(estimators.median(slowed),
                                   estimators.median(calm), delta=0.110 * 0.02)

    def test_steadier_than_the_fastest_under_heavy_jitter(self):
        # Repetitions that run anywhere from 1x to 1.7x their fastest time:
        # over many runs the median spreads less than the fastest does.
        medians, fastest = [], []
        for seed in range(30):
            rng = random.Random(seed)
            reps = [0.04 * (1.0 + 0.7 * rng.random() ** 0.3)
                    for _ in range(12)]
            medians.append(estimators.median(reps))
            fastest.append(min(reps))

        def spread(values):
            return (max(values) - min(values)) / estimators.median(values)

        self.assertLess(spread(medians), spread(fastest))

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            estimators.median([])


class ProbeScaleTest(unittest.TestCase):
    def test_slow_phase_over_the_whole_run_is_scaled_away(self):
        reference = 0.006
        calm_work = series(30, 0.110, 1.0, 0, 0, seed=4)
        calm_probe = series(30, reference, 1.0, 0, 0, seed=5)
        slow_work = series(30, 0.110, 1.5, 0, 30, seed=4)
        slow_probe = series(30, reference, 1.5, 0, 30, seed=5)

        def scaled(work, probe):
            scale = estimators.probe_scale(estimators.median(probe), reference)
            return estimators.median(work) * scale

        calm = scaled(calm_work, calm_probe)
        self.assertGreater(estimators.median(slow_work), 1.4 * calm)
        self.assertAlmostEqual(scaled(slow_work, slow_probe), calm,
                               delta=calm * 0.01)

    def test_a_slower_program_still_reads_slower(self):
        probe = series(30, 0.006, 1.0, 0, 0, seed=6)
        scale = estimators.probe_scale(estimators.median(probe), 0.006)
        fast = estimators.median(series(30, 0.110, 1.0, 0, 0, seed=7)) * scale
        slow = estimators.median(series(30, 0.121, 1.0, 0, 0, seed=7)) * scale
        self.assertAlmostEqual(slow / fast, 1.1, delta=0.01)

    def test_non_positive_times_raise(self):
        with self.assertRaises(ValueError):
            estimators.probe_scale(0.0, 0.006)
        with self.assertRaises(ValueError):
            estimators.probe_scale(0.006, 0.0)


class ChunksTest(unittest.TestCase):
    def test_splits_in_order(self):
        self.assertEqual(estimators.chunks([1, 2, 3, 4, 5, 6], 3),
                         [[1, 2], [3, 4], [5, 6]])

    def test_uneven_split_raises(self):
        with self.assertRaises(ValueError):
            estimators.chunks([1, 2, 3], 2)
        with self.assertRaises(ValueError):
            estimators.chunks([1, 2], 0)


class TailPercentileTest(unittest.TestCase):
    def test_reported_with_ten_beyond(self):
        samples = list(range(1, 1001))  # 1..1000: p99 = 990, 10 beyond.
        self.assertEqual(estimators.tail_percentile(samples), (990, 1000))

    def test_withheld_with_fewer_than_ten_beyond(self):
        self.assertIsNone(estimators.tail_percentile(list(range(1, 1000))))
        self.assertIsNone(estimators.tail_percentile([]))

    def test_slow_episode_shows_in_the_tail(self):
        samples = [40.0] * 2000 + [90.0] * 40
        value, n = estimators.tail_percentile(samples)
        self.assertEqual(value, 90.0)
        self.assertEqual(n, 2040)


if __name__ == "__main__":
    unittest.main()
