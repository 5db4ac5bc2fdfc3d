"""Counters, gauges and histograms for pipeline telemetry.

A :class:`MetricsRegistry` holds named instruments, created on first use::

    registry.counter("fault_sim.patterns_applied").inc(256)
    registry.histogram("extraction.weights").observe(w)

Instrumented code does not talk to a registry directly — it goes through the
module-level helpers in :mod:`repro.obs` (``obs.inc``, ``obs.observe``,
``obs.set_gauge``) which early-return when collection is disabled, keeping
the production path free of locking and lookups.

Histograms use fixed bucket boundaries.  The default boundary set is
log-spaced over fifteen decades (1e-9 .. 1e6) because the quantities we bin
— fault weights, critical areas, residuals — naturally spread over several
orders of magnitude (the paper's fig. 3 weight histogram spans > 3 decades).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BOUNDS"]

#: Log-spaced decade boundaries 1e-9, 1e-8, ..., 1e6.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(10.0**e for e in range(-9, 7))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max summary.

    ``bounds`` are the bucket edges: bucket ``i`` holds values in
    ``[bounds[i-1], bounds[i])`` with an underflow bucket below the first
    edge and an overflow bucket at or above the last.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] | None = None):
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect_right(self.bounds, value)
        with self._lock:
            self.buckets[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]) from buckets.

        The estimator finds the bucket holding the target rank and linearly
        interpolates inside it; the exact ``min``/``max`` summaries bound the
        open underflow/overflow buckets, so the estimate always lies within
        ``[min, max]`` and is exact for 0, for 100, and whenever the bucket
        holding the rank has collapsed to a single point.  With no samples
        there is no percentile to report and :class:`ValueError` is raised —
        a silent 0.0 here once masked an instrument that never observed
        anything.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            raise ValueError(
                f"percentile({q}) of empty histogram {self.name!r}: "
                "no samples observed"
            )
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        # Target rank over the sorted samples (nearest-rank, 1-based).
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if cumulative + n >= rank:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                fraction = (rank - cumulative) / n
                return lower + fraction * (upper - lower)
            cumulative += n
        return self.max  # pragma: no cover - ranks always land in a bucket

    def nonzero_buckets(self) -> list[tuple[float | None, float | None, int]]:
        """(lower, upper, count) for populated buckets; None marks +/-inf."""
        out: list[tuple[float | None, float | None, int]] = []
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            lower = self.bounds[i - 1] if i > 0 else None
            upper = self.bounds[i] if i < len(self.bounds) else None
            out.append((lower, upper, n))
        return out


class MetricsRegistry:
    """Named instruments, created on first use; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] | None = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    # -- queries ------------------------------------------------------------
    @property
    def counters(self) -> dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        with self._lock:
            return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able snapshot of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: g.value for n, g in sorted(self.gauges.items())
                if g.value is not None
            },
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "buckets": [
                        [lo, hi, n_samples]
                        for lo, hi, n_samples in h.nonzero_buckets()
                    ],
                }
                for n, h in sorted(self.histograms.items())
            },
        }
