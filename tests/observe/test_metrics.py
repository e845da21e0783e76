"""Unit tests for the metrics registry (repro.observe.metrics)."""

import threading

from repro.observe import MetricsRegistry
from repro.observe.metrics import exponential_buckets


def test_counter_and_gauge():
    metrics = MetricsRegistry()
    metrics.incr("tasks")
    metrics.incr("tasks", 4)
    metrics.gauge("depth").set(7.0)
    metrics.gauge("depth").add(-2.0)
    snapshot = metrics.snapshot()
    assert snapshot["counters"] == {"tasks": 5}
    assert snapshot["gauges"] == {"depth": 5.0}


def test_histogram_percentiles_uniform():
    metrics = MetricsRegistry()
    hist = metrics.histogram("lat", buckets=exponential_buckets(1, 2, 12))
    for value in range(1, 101):
        hist.observe(float(value))
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["min"] == 1.0 and snap["max"] == 100.0
    assert snap["mean"] == 50.5
    # fixed-bucket interpolation: loose but ordered and in-range
    assert 1.0 <= snap["p50"] <= snap["p95"] <= snap["p99"] <= 100.0
    assert 30.0 <= snap["p50"] <= 70.0
    assert snap["p99"] >= 64.0


def test_histogram_overflow_reports_max():
    metrics = MetricsRegistry()
    hist = metrics.histogram("sz", buckets=[10.0])
    hist.observe(5000.0)
    assert hist.percentile(0.99) == 5000.0


def test_histogram_empty_snapshot():
    metrics = MetricsRegistry()
    snap = metrics.histogram("empty").snapshot()
    assert snap["count"] == 0
    assert snap["p99"] == 0.0


def test_buckets_apply_on_first_creation_only():
    metrics = MetricsRegistry()
    first = metrics.histogram("h", buckets=[1.0, 2.0])
    again = metrics.histogram("h", buckets=[99.0])
    assert again is first
    assert first.buckets == [1.0, 2.0]


def test_disabled_registry_hands_out_noop_gauges_and_histograms():
    metrics = MetricsRegistry(enabled=False)
    metrics.gauge("g").set(1.0)
    metrics.histogram("h").observe(3.0)
    assert metrics.snapshot() == {"counters": {}, "sums": {}, "levels": {},
                                  "gauges": {}, "histograms": {}}


def test_threaded_observations_are_exact():
    metrics = MetricsRegistry()
    hist = metrics.histogram("lat")

    def work():
        for _ in range(1000):
            metrics.incr("n")
            hist.observe(0.01)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert metrics.get("n") == 8000
    assert hist.count == 8000
