"""Unit tests for the service metrics primitives."""

import threading

import pytest

from repro.core.batch import BatchRouter
from repro.core.routing import LiangShenRouter
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safety(self):
        counter = Counter()

        def hammer():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_running_aggregates(self):
        hist = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == 2.5
        assert hist.minimum == 1.0
        assert hist.maximum == 4.0

    def test_percentiles(self):
        hist = Histogram()
        for value in range(101):
            hist.observe(float(value))
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 50.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(90) == pytest.approx(90.0)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_window_eviction_keeps_totals_exact(self):
        hist = Histogram(window=4)
        for value in [10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0]:
            hist.observe(value)
        # Totals cover all 8 observations; the window holds only the 1.0s.
        assert hist.count == 8
        assert hist.total == 44.0
        assert hist.maximum == 10.0
        assert hist.percentile(99) == 1.0

    def test_summary_keys(self):
        hist = Histogram()
        hist.observe(3.0)
        summary = hist.summary()
        assert set(summary) == {
            "count", "mean", "min", "max", "p50", "p90", "p99", "p999"
        }
        assert summary["count"] == 1
        assert summary["p50"] == 3.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Histogram(window=0)

    def test_windowed_mode_is_a_window_estimate(self):
        # With eviction, the early observations are gone from the
        # percentile view.
        hist = Histogram(window=100)
        for value in range(10_000):
            hist.observe(float(value))
        assert hist.percentile(0) == 9900.0


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_flat(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(1.5)
        snap = registry.snapshot()
        assert snap["hits"] == 3
        assert snap["depth"] == 2
        assert snap["lat"]["count"] == 1

    def test_callback_gauges(self):
        registry = MetricsRegistry()
        state = {"value": 7}
        registry.register_callback("live", lambda: state["value"])
        assert registry.snapshot()["live"] == 7
        state["value"] = 9
        assert registry.snapshot()["live"] == 9

    def test_observe_query_aggregates(self, paper_net):
        registry = MetricsRegistry()
        result = LiangShenRouter(paper_net).route(1, 7)
        registry.observe_query(result.stats)
        registry.observe_query(result.stats)
        snap = registry.snapshot()
        assert snap["query.count"] == 2
        assert snap["query.settled"] == 2 * result.stats.settled
        assert snap["query.heap_ops"] == 2 * result.stats.total_heap_ops

    def test_bind_batch_router(self, paper_net):
        registry = MetricsRegistry()
        router = BatchRouter(paper_net)
        registry.bind_batch_router(router)
        router.route(1, 7)
        router.route(1, 6)
        snap = registry.snapshot()
        assert snap["batch.cache_misses"] == 1
        assert snap["batch.cache_hits"] == 1
        assert snap["batch.cached_sources"] == 1
        assert snap["batch.cache_evictions"] == 0

    def test_render_sorted_lines(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.histogram("m").observe(1.0)
        text = registry.render()
        lines = text.splitlines()
        assert lines[0].startswith("a: 2")
        assert lines[-1].startswith("z: 1")
        assert any("count=1" in line for line in lines)


class TestReset:
    def test_counter_reset(self):
        counter = Counter()
        counter.inc(5)
        counter.reset()
        assert counter.value == 0

    def test_gauge_reset(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.reset()
        assert gauge.value == 0.0

    def test_histogram_reset_clears_window_and_totals(self):
        histogram = Histogram(window=4)
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.total == 0.0
        assert histogram.percentile(0.5) == 0.0
        histogram.observe(7.0)  # still usable afterwards
        assert histogram.count == 1
        assert histogram.minimum == 7.0

    def test_histogram_rejects_nan(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.observe(float("nan"))
        assert histogram.count == 0

    def test_registry_reset_keeps_instruments_and_callbacks(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc(9)
        registry.histogram("lat").observe(2.0)
        registry.register_callback("live", lambda: 42.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["hits"] == 0
        assert snap["live"] == 42.0  # callbacks survive a reset
        assert registry.counter("hits") is counter  # identity preserved
        counter.inc()
        assert registry.snapshot()["hits"] == 1
