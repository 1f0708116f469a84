"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchlib import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: rank 990, 10 beyond — reportable.
        self.assertEqual(stats.tail_quantile(1000), 0.99)
        # 999 samples: rank 990, 9 beyond — p99 is not reportable.
        self.assertLess(stats.tail_quantile(999), 0.99)
        self.assertGreaterEqual(stats.beyond(999, stats.tail_quantile(999)),
                                stats.MIN_BEYOND)

    def test_every_reported_tail_has_ten_beyond(self):
        for count in range(11, 3000, 7):
            q = stats.tail_quantile(count)
            self.assertIsNotNone(q)
            self.assertGreaterEqual(stats.beyond(count, q), stats.MIN_BEYOND)
            # The next percent up would not be reportable (or exceeds p99).
            if q < 0.99:
                self.assertLess(stats.beyond(count, q + 0.01),
                                stats.MIN_BEYOND)

    def test_no_tail_for_small_samples(self):
        for count in range(0, 11):
            self.assertIsNone(stats.tail_quantile(count))
        self.assertIsNone(stats.tail([1.0] * 10))

    def test_tail_of_30_passes(self):
        q, value = stats.tail(list(range(30)))
        self.assertEqual(q, 0.66)
        self.assertEqual(value, 19)
        self.assertEqual(stats.beyond(30, q), 10)

    def test_missing_sample_is_infinitely_late(self):
        values = [100.0] * 1990 + [math.inf] * 10
        self.assertEqual(stats.tail(values), (0.99, 100.0))
        values = [100.0] * 1979 + [math.inf] * 21
        self.assertEqual(stats.tail(values)[1], math.inf)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times({1: (0, 0, 10)}), {1: 10})

    def test_nested_children_count_once(self):
        spans = {
            1: (0, 0, 100),   # root
            2: (1, 10, 50),   # child
            3: (2, 20, 30),   # grandchild, inside the child
        }
        got = stats.self_times(spans)
        self.assertEqual(got[1], 60)   # 100 - 40
        self.assertEqual(got[2], 30)   # 40 - 10
        self.assertEqual(got[3], 10)

    def test_overlapping_children_are_unioned(self):
        spans = {
            1: (0, 0, 100),
            2: (1, 10, 40),
            3: (1, 30, 60),   # overlaps 2 on [30, 40)
            4: (1, 55, 58),   # inside 3
        }
        self.assertEqual(stats.self_times(spans)[1], 50)  # 100 - [10, 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = {1: (0, 10, 20), 2: (1, 0, 15), 3: (1, 18, 30)}
        self.assertEqual(stats.self_times(spans)[1], 3)  # [15, 18)

    def test_unattributed_fraction(self):
        spans = {
            1: (0, 0, 100), 2: (1, 0, 80),
            3: (0, 200, 300), 4: (3, 200, 300),
        }
        self.assertAlmostEqual(stats.unattributed_fraction(spans), 0.1)


def rung(rate, slope, latency_us=100.0, samples=2000, seconds=1.0,
         blocked_frac=0.5):
    times = [seconds * i / 199 for i in range(200)]
    return {
        "rate": rate,
        "backlog_t": times,
        "backlog": [slope * t for t in times],
        "latency_us": [latency_us] * samples,
        "blocked_frac": blocked_frac,
        "stopped": False,
    }


def best_rate(rungs, limit_us=50_000, growth_frac=0.05):
    best, _ = stats.sustainable(rungs, limit_us, growth_frac,
                                min_blocked_frac=0.1)
    return None if best is None else best["rate"]


class SustainableRateTest(unittest.TestCase):
    def test_growth_rate_is_the_slope(self):
        r = rung(1e6, 5e4)
        self.assertAlmostEqual(
            stats.growth_rate(r["backlog_t"], r["backlog"]), 5e4, places=3)

    def test_growing_backlog_stops_the_ladder(self):
        rungs = [rung(5e5, 0), rung(1e6, 10), rung(2e6, 3e5), rung(4e6, 0)]
        # 2M grows by 15 % of its rate a second; 4M is never considered.
        self.assertEqual(best_rate(rungs), 1e6)

    def test_latency_limit_stops_the_ladder(self):
        rungs = [rung(5e5, 0), rung(1e6, 0, latency_us=80_000)]
        self.assertEqual(best_rate(rungs), 5e5)

    def test_missing_alerts_fail_a_rung(self):
        late = rung(1e6, 0)
        late["latency_us"] = [100.0] * 900 + [math.inf] * 100
        self.assertEqual(best_rate([rung(5e5, 0), late]), 5e5)

    def test_nothing_sustainable(self):
        self.assertIsNone(best_rate([rung(5e5, 1e5)]))

    def test_order_of_rungs_does_not_matter(self):
        rungs = [rung(2e6, 3e5), rung(5e5, 0), rung(1e6, 0)]
        self.assertEqual(best_rate(rungs), 1e6)

    def test_generator_bound_rung_is_skipped(self):
        # 2M's backlog grew while the sender never waited on the daemon:
        # the generator fell behind, which says nothing about the daemon.
        rungs = [rung(1e6, 0), rung(2e6, 3e5, blocked_frac=0.0),
                 rung(4e6, 0), rung(8e6, 2e6)]
        self.assertEqual(best_rate(rungs), 4e6)

    def test_a_blocked_growing_rung_fails(self):
        rungs = [rung(1e6, 0), rung(2e6, 3e5, blocked_frac=0.6)]
        self.assertEqual(best_rate(rungs), 1e6)

    def test_the_rate_the_ladder_stopped_on_fails(self):
        stopped = rung(2e6, 0, seconds=0.01)
        stopped["stopped"] = True
        self.assertEqual(best_rate([rung(1e6, 0), stopped]), 1e6)
        # Stopped without ever waiting on the daemon: the generator's limit.
        stopped["blocked_frac"] = 0.0
        best, failing = stats.sustainable([rung(1e6, 0), stopped],
                                          50_000, 0.05, 0.1)
        self.assertEqual((best["rate"], failing), (1e6, None))

    def test_first_failing_rung_is_returned(self):
        best, failing = stats.sustainable([rung(1e6, 0), rung(2e6, 0)],
                                          50_000, 0.05, 0.1)
        self.assertEqual((best["rate"], failing), (2e6, None))
        _, failing = stats.sustainable(
            [rung(1e6, 0), rung(2e6, 3e5), rung(4e6, 9e5)], 50_000, 0.05, 0.1)
        self.assertEqual(failing["rate"], 2e6)


if __name__ == "__main__":
    unittest.main()
