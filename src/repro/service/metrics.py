"""Thread-safe metrics primitives for the routing service.

The service layer needs cheap observability: how often the epoch cache
hits, how deep the request queue runs, how long admissions take.  This
module provides the three classic instrument kinds — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` — plus a :class:`MetricsRegistry`
that names them, snapshots them atomically, and aggregates the
per-query :class:`~repro.core.instrumentation.QueryStats` the routers
already emit.

Everything is in-process and lock-protected; there is no export
protocol.  ``snapshot()`` returns plain dicts so callers can ship the
numbers wherever they like; ``render()`` is the human-readable form
(``RoutingService.render_metrics()``).
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from typing import Callable

from repro.core.instrumentation import QueryStats

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (cache hits, rejections, ...)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the counter (soak-run bookkeeping; not a decrement API)."""
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """An instantaneous level (queue depth, cache epoch, live workers)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Distribution of observed values with percentile queries.

    Keeps a sorted window of the most recent ``window`` observations
    (insertion via :func:`bisect.insort`, eviction in arrival order) next
    to running ``count`` / ``total`` / ``min`` / ``max`` over *all*
    observations — exact totals and recent-window percentiles without
    unbounded memory.
    """

    __slots__ = ("_lock", "_window", "_sorted", "_arrivals",
                 "count", "total", "minimum", "maximum")

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self._lock = threading.Lock()
        self._window = window
        self._sorted: list[float] = []
        self._arrivals: deque[float] = deque()
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            raise ValueError("histogram observations must not be NaN")
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
            if len(self._arrivals) == self._window:
                oldest = self._arrivals.popleft()
                self._sorted.pop(bisect.bisect_left(self._sorted, oldest))
            self._arrivals.append(value)
            bisect.insort(self._sorted, value)

    def reset(self) -> None:
        """Drop the window and the running totals (between soak phases)."""
        with self._lock:
            self._sorted.clear()
            self._arrivals.clear()
            self.count = 0
            self.total = 0.0
            self.minimum = float("inf")
            self.maximum = float("-inf")

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def _percentile_locked(self, q: float) -> float:
        """Percentile of the retained observations; caller holds the lock.

        Safe on an empty or partially-filled window: returns 0.0 for
        empty, interpolates over however many observations exist.
        """
        if not self._sorted:
            return 0.0
        rank = q / 100.0 * (len(self._sorted) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(self._sorted) - 1)
        frac = rank - lower
        return self._sorted[lower] * (1 - frac) + self._sorted[upper] * frac

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0 <= q <= 100, any float — 99.9 works).

        Over the recent window.  Returns 0.0 when nothing has been
        observed (the natural reading for latency metrics of an idle
        service).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            return self._percentile_locked(q)

    def summary(self) -> dict[str, float]:
        """count / mean / min / max plus p50, p90, p99, p999.

        One lock acquisition for the whole summary, so concurrent
        ``observe`` calls cannot tear it (count and percentiles always
        describe the same instant).
        """
        with self._lock:
            count = self.count
            return {
                "count": count,
                "mean": self.total / count if count else 0.0,
                "min": self.minimum if count else 0.0,
                "max": self.maximum if count else 0.0,
                "p50": self._percentile_locked(50),
                "p90": self._percentile_locked(90),
                "p99": self._percentile_locked(99),
                "p999": self._percentile_locked(99.9),
            }


class MetricsRegistry:
    """Named metrics with atomic snapshots and router-stats aggregation.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.counter("cache.hits").inc()
    >>> registry.gauge("queue.depth").set(3)
    >>> registry.snapshot()["cache.hits"]
    1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._callbacks: dict[str, Callable[[], float]] = {}

    # -- get-or-create accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram()
            return self._histograms[name]

    def register_callback(self, name: str, fn: Callable[[], float]) -> None:
        """Register a pull-style gauge evaluated at snapshot time.

        Lets lower layers (e.g. :class:`~repro.core.batch.BatchRouter`,
        which must not depend on this package) expose their counters
        without holding a registry reference.
        """
        with self._lock:
            self._callbacks[name] = fn

    def bind_batch_router(self, router, prefix: str = "batch") -> None:
        """Expose a :class:`~repro.core.batch.BatchRouter`'s cache counters.

        Publishes ``<prefix>.cache_hits`` / ``cache_misses`` /
        ``cache_evictions`` / ``cached_sources`` as callback gauges.
        """
        self.register_callback(f"{prefix}.cache_hits", lambda: router.cache_hits)
        self.register_callback(f"{prefix}.cache_misses", lambda: router.cache_misses)
        self.register_callback(
            f"{prefix}.cache_evictions", lambda: router.cache_evictions
        )
        self.register_callback(
            f"{prefix}.cached_sources", lambda: router.cached_sources
        )

    def reset(self) -> None:
        """Zero every counter, gauge, and histogram (instruments and
        callback registrations survive).

        Soak runs reset between phases so per-phase assertions (retries,
        stale serves, breaker trips) see only their own window.
        """
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument.reset()

    # -- router work aggregation ---------------------------------------------

    def observe_query(self, stats: QueryStats, prefix: str = "query") -> None:
        """Fold one query's :class:`QueryStats` into running counters."""
        self.counter(f"{prefix}.count").inc()
        self.counter(f"{prefix}.settled").inc(stats.settled)
        self.counter(f"{prefix}.relaxations").inc(stats.relaxations)
        self.counter(f"{prefix}.heap_ops").inc(stats.total_heap_ops)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """All metrics as one flat dict (histograms nested as summaries)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            callbacks = dict(self._callbacks)
        out: dict[str, object] = {}
        for name, counter in counters.items():
            out[name] = counter.value
        for name, gauge in gauges.items():
            out[name] = gauge.value
        for name, fn in callbacks.items():
            out[name] = fn()
        for name, histogram in histograms.items():
            out[name] = histogram.summary()
        return out

    def render(self) -> str:
        """Human-readable ``name value`` lines, sorted by name."""
        lines: list[str] = []
        for name, value in sorted(self.snapshot().items()):
            if isinstance(value, dict):
                detail = "  ".join(
                    f"{key}={_fmt(val)}" for key, val in value.items()
                )
                lines.append(f"{name}: {detail}")
            else:
                lines.append(f"{name}: {_fmt(value)}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
