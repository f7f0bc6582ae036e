"""RoutingService facade: guarded serving, deadlines, concurrency, and
its provisioning-layer wiring."""

import math
import random
import sys
import threading

import pytest

from repro.core.routing import LiangShenRouter
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    NoPathError,
    TransientBackendError,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.service import EpochRouterCache, RoutingService
from repro.topology.reference import nsfnet_network
from repro.wdm.provisioning import SemilightpathProvisioner


class TestFacade:
    def test_route_and_cost(self, paper_net):
        service = RoutingService(paper_net)
        assert service.route(1, 7).total_cost == 2.0
        assert service.cost(1, 6) == 3.5
        assert service.cost(1, 1) == 0.0
        assert service.cost(7, 1) == math.inf

    def test_try_route(self, paper_net):
        service = RoutingService(paper_net)
        assert service.try_route(7, 1) is None
        assert service.try_route(1, 7) is not None

    def test_route_raises_no_path(self, paper_net):
        service = RoutingService(paper_net)
        with pytest.raises(NoPathError):
            service.route(7, 1)

    def test_metrics_snapshot_contents(self, paper_net):
        service = RoutingService(paper_net)
        service.route(1, 7)
        service.route(1, 6)
        snap = service.metrics_snapshot()
        assert snap["engine.served"] == 2
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1
        assert snap["service.admission_ms"]["count"] == 2
        assert "p99" in snap["service.admission_ms"]
        assert "cache.epoch" not in snap or snap["cache.epoch"] == 0

    def test_render_metrics_is_text(self, paper_net):
        service = RoutingService(paper_net)
        service.route(1, 7)
        text = service.render_metrics()
        assert "engine.served: 1" in text

    def test_invalidation_hooks_bump_epoch(self, paper_net):
        service = RoutingService(paper_net)
        service.route(1, 7)
        assert service.epoch == 0
        service.notify_link_degraded(1, 2)
        assert service.epoch == 1
        service.notify_link_recovered(1, 2)
        assert service.epoch == 2
        service.invalidate()
        assert service.epoch == 3


def _raise(exc):
    """A fault hook that raises *exc* on every backend attempt."""

    def hook():
        raise exc

    return hook


class TestResilienceWiring:
    def test_retry_absorbs_transient_faults(self, paper_net):
        service = RoutingService(
            paper_net,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, sleep=lambda _: None),
        )
        faults = [TransientBackendError("flake"), TransientBackendError("flake")]

        def hook():
            if faults:
                raise faults.pop()

        service.fault_hook = hook
        assert service.route(1, 7).total_cost == 2.0
        snapshot = service.metrics_snapshot()
        assert snapshot["engine.retries"] == 2
        assert snapshot["engine.backend_faults"] == 2

    def test_retry_exhaustion_surfaces_the_fault(self, paper_net):
        service = RoutingService(
            paper_net,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, sleep=lambda _: None),
        )
        service.fault_hook = _raise(TransientBackendError("always down"))
        with pytest.raises(TransientBackendError):
            service.route(1, 7)

    def test_open_breaker_fails_fast(self, paper_net):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=60.0, clock=lambda: now[0]
        )
        service = RoutingService(paper_net, breaker=breaker)
        service.fault_hook = _raise(TransientBackendError("down"))
        with pytest.raises(TransientBackendError):
            service.route(1, 7)
        assert breaker.state == CircuitBreaker.OPEN
        assert service.metrics_snapshot()["engine.breaker_state"] == 2.0
        # The hook is no longer reached: the breaker rejects at admission.
        service.fault_hook = lambda: pytest.fail("backend must not be called")
        with pytest.raises(CircuitOpenError):
            service.route(1, 7)

    def test_breaker_closes_after_successful_probe(self, paper_net):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10.0, clock=lambda: now[0]
        )
        service = RoutingService(paper_net, breaker=breaker)
        faulty = [TransientBackendError("down")]

        def hook():
            if faulty:
                raise faulty.pop()

        service.fault_hook = hook
        with pytest.raises(TransientBackendError):
            service.route(1, 7)
        now[0] = 11.0  # past the reset timeout: next call is the probe
        assert service.route(1, 7).total_cost == 2.0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_no_path_counts_as_backend_success(self, paper_net):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        service = RoutingService(paper_net, breaker=breaker)
        with pytest.raises(NoPathError):
            service.route(7, 1)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0
        assert service.metrics_snapshot()["engine.no_path"] == 1


class TestDeadlines:
    def test_deadline_error_is_typed_with_elapsed(self, paper_net):
        service = RoutingService(paper_net)
        service.fault_hook = lambda: pytest.fail("backend must not be called")
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.route(1, 7, timeout=0.0)
        error = excinfo.value
        assert error.source == 1 and error.target == 7
        assert error.elapsed is not None and error.elapsed >= 0.0
        assert "after" in str(error)

    def test_expired_counter(self, paper_net):
        service = RoutingService(paper_net)
        with pytest.raises(DeadlineExceeded):
            service.route(1, 7, timeout=0.0)
        # A missed deadline is not degraded away: it is a caller outcome.
        with pytest.raises(DeadlineExceeded):
            service.route_resilient(1, 7, timeout=0.0)
        snapshot = service.metrics_snapshot()
        assert snapshot["engine.deadline_exceeded"] == 2
        assert snapshot.get("engine.served", 0) == 0

    def test_unexpired_deadline_served(self, paper_net):
        service = RoutingService(paper_net)
        assert service.route(1, 7, timeout=60.0).total_cost == 2.0


class TestConcurrency:
    def test_concurrent_determinism(self, paper_net):
        """Six threads calling one service: every answer is the serial one."""
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

        service = RoutingService(paper_net)
        errors = []

        def hammer(offset):
            pairs = list(expected)
            for i in range(len(pairs) * 3):
                s, t = pairs[(i + offset) % len(pairs)]
                try:
                    got = service.route(s, t, timeout=30.0)
                except NoPathError:
                    got = None
                if got != expected[(s, t)]:
                    errors.append((s, t, got))

        threads = [
            threading.Thread(target=hammer, args=(i * 5,), daemon=True)
            for i in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        snapshot = service.metrics_snapshot()
        assert snapshot["engine.served"] + snapshot["engine.no_path"] == (
            6 * 3 * len(expected)
        )


class TestProvisionerWiring:
    """A service over a provisioner's live residual view."""

    def test_admissions_match_cold_router_on_residual(self):
        """With each reservation's channels marked degraded and each release
        invalidating, served routes are hop-identical to a cold router
        built on the identical residual network, and stay feasible."""
        net = nsfnet_network(num_wavelengths=4, seed=1)
        rng = random.Random(7)
        nodes = net.nodes()
        provisioner = SemilightpathProvisioner(net)
        service = RoutingService(provisioner.residual_network)
        connections = []
        for step in range(30):
            source, target = rng.sample(nodes, 2)
            connection = provisioner.try_establish(source, target)
            if connection is not None:
                connections.append(connection)
                for hop in connection.path.hops:
                    service.notify_link_degraded(hop.tail, hop.head, hop.wavelength)
            if step % 7 == 6 and connections:
                provisioner.teardown(
                    connections.pop(rng.randrange(len(connections)))
                )
                service.invalidate()
            residual = provisioner.residual_network()
            cold = LiangShenRouter(residual)
            for _ in range(4):
                a, b = rng.sample(nodes, 2)
                try:
                    warm = service.route(a, b)
                except NoPathError:
                    warm = None
                try:
                    expected = cold.route(a, b).path
                except NoPathError:
                    expected = None
                if expected is None:
                    assert warm is None
                else:
                    assert warm is not None
                    assert warm.hops == expected.hops
                    assert warm.total_cost == pytest.approx(expected.total_cost)
                    warm.validate(residual)  # only free channels used

    def test_full_invalidation_byte_identical_to_cold_cache(self):
        net = nsfnet_network(num_wavelengths=4, seed=1)
        rng = random.Random(3)
        nodes = net.nodes()
        provisioner = SemilightpathProvisioner(net)
        service = RoutingService(provisioner.residual_network)
        for source in nodes:
            service.cache.tree(source)  # warm on the empty residual
        for _ in range(10):
            provisioner.try_establish(*rng.sample(nodes, 2))
        service.invalidate()
        cold = EpochRouterCache(provisioner.residual_network())
        for source in nodes:
            assert service.cache.tree(source) == cold.tree(source)

    def test_blocking_behaviour_preserved(self, tiny_net):
        provisioner = SemilightpathProvisioner(tiny_net)
        first = provisioner.establish("a", "c")
        assert first.path.total_cost == 2.5
        second = provisioner.establish("a", "c")  # forced onto direct link
        assert second.path.total_cost == 4.0
        assert provisioner.try_establish("a", "c") is None  # now blocked
