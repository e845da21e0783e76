"""Regression tests for monitoring correctness fixes.

Each test pins a bug that previously passed silently: counters raced
under real threads, and the concurrency level diluted its mean with
absolute (not elapsed) time.
"""

import threading

import pytest

from repro.observe import Level, MetricsRegistry


class TestCountersThreadSafety:
    def test_incr_and_add_are_exact_under_threads(self):
        counters = MetricsRegistry()

        def work():
            for _ in range(2000):
                counters.incr("n")
                counters.add("s", 0.5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.get("n") == 16000
        assert counters.get_sum("s") == 8000.0
        assert counters.mean("s", "n") == 0.5


class TestLevelOffsetClock:
    def test_mean_uses_elapsed_not_absolute_time(self):
        # a clock that starts at t=100 (VirtualClock(start=...), real
        # clock) must not dilute the average with the 0..100 dead zone
        level = Level("tasks")
        level.change(100.0, +2)
        level.change(101.0, -2)
        assert level.mean_until(102.0) == pytest.approx(1.0)
        assert level.peak == 2

    def test_mean_at_first_sample_instant_is_zero(self):
        level = Level("tasks")
        level.change(50.0, +3)
        assert level.mean_until(50.0) == 0.0

    def test_no_samples_means_zero(self):
        assert Level("tasks").mean_until(10.0) == 0.0
