"""The metrics registry: counters, levels, gauges, fixed-bucket
histograms.

Counters, sums and concurrency levels always count — they are what
``VinzEnvironment.summary()`` and the benchmarks report.  Histograms
and gauges are the detailed set; ``enabled=False`` turns them into
no-ops for pure-speed runs:

* ``queue.wait`` — seconds a message spent queued before delivery;
* ``fiber.resume_latency`` — queue wait of the message that resumed a
  suspended fiber (the migration cost the paper's cache exists to cut);
* ``persist.blob_bytes`` / ``codec.*_bytes`` — fiber snapshot sizes;
* ``gvm.run_instructions`` — GVM instructions per fiber run.

Histograms are fixed-bucket: ``observe`` is a bisect plus two adds, and
``p50/p95/p99`` come from linear interpolation inside the covering
bucket — no per-sample storage, so a million-message run costs a few
hundred bytes per histogram.

All mutation is lock-guarded: the read-modify-write on a plain dict
races in real-threaded cluster mode, and fault-campaign summary
counters must be exact, not approximately right.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence


def exponential_buckets(start: float, factor: float,
                        count: int) -> List[float]:
    """``count`` bucket upper bounds growing geometrically from
    ``start`` (e.g. ``exponential_buckets(0.001, 2, 12)``)."""
    out, value = [], start
    for _ in range(count):
        out.append(value)
        value *= factor
    return out


#: default latency buckets: 10 microseconds .. ~84 virtual seconds
DEFAULT_TIME_BUCKETS = exponential_buckets(1e-5, 2.0, 24)
#: default size buckets: 16 bytes .. 8 MiB
DEFAULT_SIZE_BUCKETS = exponential_buckets(16, 2.0, 20)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value: float = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram:
    """A fixed-bucket histogram with percentile snapshots.

    ``buckets`` are sorted upper bounds; one extra overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float],
                 lock: threading.Lock):
        self.name = name
        self.buckets: List[float] = sorted(buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            index = bisect_left(self.buckets, value)
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) by linear
        interpolation inside the covering bucket."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.buckets):
                    # overflow bucket: the best point estimate is the max
                    return self.max if self.max is not None else 0.0
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = self.buckets[index]
                fraction = (target - previous) / bucket_count
                estimate = lower + (upper - lower) * fraction
                # never report beyond the observed extremes
                if self.max is not None:
                    estimate = min(estimate, self.max)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                return estimate
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class Level:
    """A time-weighted level (tasks or fibers in flight): peak and mean.

    The mean is taken over the elapsed time since the *first sample*,
    not since absolute t=0 — a clock that doesn't start at zero
    (``VirtualClock(start=...)``, real-clock mode) must not dilute the
    average.
    """

    __slots__ = ("name", "level", "peak", "_start", "_last_time", "_area")

    def __init__(self, name: str):
        self.name = name
        self.level = 0
        self.peak = 0
        self._start: Optional[float] = None
        self._last_time = 0.0
        self._area = 0.0

    def change(self, now: float, delta: int) -> None:
        if self._start is None:
            self._start = now
            self._last_time = now
        self._area += self.level * (now - self._last_time)
        self._last_time = now
        self.level += delta
        self.peak = max(self.peak, self.level)

    def mean_until(self, now: float) -> float:
        if self._start is None:
            return 0.0
        area = self._area + self.level * (now - self._last_time)
        elapsed = now - self._start
        return area / elapsed if elapsed > 0 else 0.0


class _Noop:
    """Shared do-nothing gauge/histogram for a disabled registry."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _Noop()


class MetricsRegistry:
    """Named instruments, created on first use; one per cluster.

    ``enabled`` gates gauges and histograms only (a disabled registry
    hands out a shared no-op instrument); counters, sums and levels
    always count.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._sums: Dict[str, float] = {}
        self._levels: Dict[str, Level] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- always on ----------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self._sums[name] = self._sums.get(name, 0.0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def get_sum(self, name: str) -> float:
        return self._sums.get(name, 0.0)

    def mean(self, sum_name: str, count_name: str) -> float:
        n = self._counts.get(count_name, 0)
        return self._sums.get(sum_name, 0.0) / n if n else 0.0

    def level(self, name: str) -> Level:
        with self._lock:
            return self._levels.setdefault(name, Level(name))

    # -- behind ``enabled`` -------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get/create a histogram; ``buckets`` applies on first creation
        (later callers inherit them)."""
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        histogram = self._histograms.get(name)
        if histogram is None:
            bounds = buckets if buckets is not None else DEFAULT_TIME_BUCKETS
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, bounds, self._lock))
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump of every instrument (the JSON report)."""
        with self._lock:
            counters = dict(sorted(self._counts.items()))
            sums = dict(sorted(self._sums.items()))
        return {
            "counters": counters,
            "sums": sums,
            "levels": {n: {"level": lv.level, "peak": lv.peak}
                       for n, lv in sorted(self._levels.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self._histograms.items())},
        }
