"""Query engine: backpressure, deadlines, coalescing, concurrency."""

import threading
import time

import pytest

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    DeadlineExpiredError,
    NoPathError,
    ServiceClosedError,
    ServiceOverloadError,
    TransientBackendError,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.service.cache import EpochRouterCache
from repro.service.engine import QueryEngine
from repro.service.metrics import MetricsRegistry


def sync_engine(net, **kwargs):
    """An engine with no workers: drained explicitly via run_pending()."""
    kwargs.setdefault("workers", 0)
    return QueryEngine(EpochRouterCache(net), **kwargs)


class TestSynchronousMode:
    def test_route_drains_inline(self, paper_net):
        engine = sync_engine(paper_net)
        assert engine.route(1, 7).total_cost == 2.0

    def test_run_pending_serves_all(self, paper_net):
        engine = sync_engine(paper_net)
        futures = [engine.submit(1, 7), engine.submit(2, 7), engine.submit(1, 6)]
        assert engine.queue_depth == 3
        assert engine.run_pending() == 3
        assert engine.queue_depth == 0
        assert all(f.done() for f in futures)
        assert futures[0].result().total_cost == 2.0

    def test_no_path_propagates(self, paper_net):
        engine = sync_engine(paper_net)
        future = engine.submit(7, 1)
        engine.run_pending()
        with pytest.raises(NoPathError):
            future.result()


class TestBackpressure:
    def test_overload_rejection(self, paper_net):
        engine = sync_engine(paper_net, queue_limit=3)
        for _ in range(3):
            engine.submit(1, 7)
        with pytest.raises(ServiceOverloadError) as excinfo:
            engine.submit(1, 7)
        assert excinfo.value.queue_limit == 3
        # Draining frees capacity again.
        engine.run_pending()
        engine.submit(1, 7)

    def test_rejected_counter(self, paper_net):
        registry = MetricsRegistry()
        engine = QueryEngine(
            EpochRouterCache(paper_net), workers=0, queue_limit=1, metrics=registry
        )
        engine.submit(1, 7)
        with pytest.raises(ServiceOverloadError):
            engine.submit(1, 6)
        assert registry.snapshot()["engine.rejected"] == 1
        assert registry.snapshot()["engine.submitted"] == 1

    def test_invalid_limits(self, paper_net):
        cache = EpochRouterCache(paper_net)
        with pytest.raises(ValueError):
            QueryEngine(cache, workers=-1)
        with pytest.raises(ValueError):
            QueryEngine(cache, queue_limit=0)


class TestDeadlines:
    def test_expired_while_queued(self, paper_net):
        engine = sync_engine(paper_net)
        future = engine.submit(1, 7, timeout=0.0)
        time.sleep(0.01)
        engine.run_pending()
        with pytest.raises(DeadlineExpiredError) as excinfo:
            future.result()
        assert excinfo.value.source == 1

    def test_unexpired_deadline_served(self, paper_net):
        engine = sync_engine(paper_net)
        future = engine.submit(1, 7, timeout=60.0)
        engine.run_pending()
        assert future.result().total_cost == 2.0

    def test_expired_counter(self, paper_net):
        registry = MetricsRegistry()
        engine = QueryEngine(
            EpochRouterCache(paper_net), workers=0, metrics=registry
        )
        engine.submit(1, 7, timeout=0.0)
        time.sleep(0.01)
        engine.run_pending()
        assert registry.snapshot()["engine.expired"] == 1
        assert registry.snapshot()["engine.deadline_exceeded"] == 1

    def test_deadline_error_is_typed_with_elapsed(self, paper_net):
        engine = sync_engine(paper_net)
        future = engine.submit(1, 7, timeout=0.0)
        time.sleep(0.01)
        engine.run_pending()
        with pytest.raises(DeadlineExceeded) as excinfo:
            future.result()
        error = excinfo.value
        assert error.source == 1 and error.target == 7
        assert error.elapsed is not None and error.elapsed > 0.0
        assert "after" in str(error)

    def test_legacy_alias_is_the_same_class(self):
        assert DeadlineExpiredError is DeadlineExceeded


class TestCoalescing:
    def test_same_source_batch_counted(self, paper_net):
        registry = MetricsRegistry()
        engine = QueryEngine(
            EpochRouterCache(paper_net), workers=0, metrics=registry
        )
        futures = [engine.submit(1, t) for t in (6, 7, 2, 3)]
        engine.submit(2, 7)
        engine.run_pending()
        snap = registry.snapshot()
        assert snap["engine.coalesced"] == 3  # three riders behind the first
        assert all(f.done() for f in futures)

    def test_coalescing_preserves_results(self, paper_net):
        engine = sync_engine(paper_net)
        single = EpochRouterCache(paper_net)
        futures = {t: engine.submit(1, t) for t in (2, 3, 6, 7)}
        engine.run_pending()
        for target, future in futures.items():
            assert future.result() == single.route(1, target)


class TestWorkerPool:
    def test_concurrent_determinism(self, paper_net):
        """Many threads, shared cache: every answer equals the serial one."""
        serial = EpochRouterCache(paper_net)
        expected = {}
        nodes = paper_net.nodes()
        for s in nodes:
            for t in nodes:
                if s == t:
                    continue
                try:
                    expected[(s, t)] = serial.route(s, t)
                except NoPathError:
                    expected[(s, t)] = None

        with QueryEngine(EpochRouterCache(paper_net), workers=4) as engine:
            errors = []

            def hammer(offset):
                pairs = list(expected)
                for i in range(len(pairs) * 3):
                    s, t = pairs[(i + offset) % len(pairs)]
                    try:
                        got = engine.route(s, t, timeout=30.0)
                    except NoPathError:
                        got = None
                    if got != expected[(s, t)]:
                        errors.append((s, t, got))

            threads = [
                threading.Thread(target=hammer, args=(i * 5,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

    def test_shutdown_rejects_new_work(self, paper_net):
        engine = QueryEngine(EpochRouterCache(paper_net), workers=2)
        assert engine.route(1, 7, timeout=30.0).total_cost == 2.0
        engine.shutdown()
        with pytest.raises(ServiceClosedError):
            engine.submit(1, 7)

    def test_shutdown_idempotent(self, paper_net):
        engine = QueryEngine(EpochRouterCache(paper_net), workers=1)
        engine.shutdown()
        engine.shutdown()


class TestResilienceWiring:
    def test_retry_absorbs_transient_faults(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(
            paper_net,
            metrics=registry,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, sleep=lambda _: None),
        )
        faults = [TransientBackendError("flake"), TransientBackendError("flake")]

        def hook():
            if faults:
                raise faults.pop()

        engine.fault_hook = hook
        assert engine.route(1, 7).total_cost == 2.0
        snapshot = registry.snapshot()
        assert snapshot["engine.retries"] == 2
        assert snapshot["engine.backend_faults"] == 2

    def test_retry_exhaustion_surfaces_the_fault(self, paper_net):
        engine = sync_engine(
            paper_net,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _: None),
        )
        engine.fault_hook = lambda: (_ for _ in ()).throw(
            TransientBackendError("always down")
        )
        with pytest.raises(TransientBackendError):
            engine.route(1, 7)

    def test_open_breaker_fails_fast(self, paper_net):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=60.0, clock=lambda: now[0]
        )
        engine = sync_engine(paper_net, breaker=breaker)
        engine.fault_hook = lambda: (_ for _ in ()).throw(
            TransientBackendError("down")
        )
        with pytest.raises(TransientBackendError):
            engine.route(1, 7)
        assert breaker.state == CircuitBreaker.OPEN
        # The hook is no longer reached: the breaker rejects at admission.
        engine.fault_hook = lambda: pytest.fail("backend must not be called")
        with pytest.raises(CircuitOpenError):
            engine.route(1, 7)

    def test_breaker_closes_after_successful_probe(self, paper_net):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=lambda: now[0]
        )
        engine = sync_engine(paper_net, breaker=breaker)
        faulty = [TransientBackendError("down")]

        def hook():
            if faulty:
                raise faulty.pop()

        engine.fault_hook = hook
        with pytest.raises(TransientBackendError):
            engine.route(1, 7)
        now[0] = 11.0  # past the reset timeout: next call is the probe
        assert engine.route(1, 7).total_cost == 2.0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_no_path_counts_as_backend_success(self, paper_net):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        engine = sync_engine(paper_net, breaker=breaker)
        with pytest.raises(NoPathError):
            engine.route(7, 1)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0
