"""RoutingService facade and its provisioning-layer wiring."""

import math
import random

import pytest

from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError, ServiceOverloadError
from repro.service import EpochRouterCache, RoutingService
from repro.topology.reference import nsfnet_network
from repro.wdm.provisioning import SemilightpathProvisioner


class TestFacade:
    def test_route_and_cost(self, paper_net):
        with RoutingService(paper_net, workers=0) as service:
            assert service.route(1, 7).total_cost == 2.0
            assert service.cost(1, 6) == 3.5
            assert service.cost(1, 1) == 0.0
            assert service.cost(7, 1) == math.inf

    def test_try_route(self, paper_net):
        with RoutingService(paper_net, workers=0) as service:
            assert service.try_route(7, 1) is None
            assert service.try_route(1, 7) is not None

    def test_route_raises_no_path(self, paper_net):
        with RoutingService(paper_net, workers=0) as service:
            with pytest.raises(NoPathError):
                service.route(7, 1)

    def test_worker_mode_matches_sync_mode(self, paper_net):
        with RoutingService(paper_net, workers=0) as sync_service:
            with RoutingService(paper_net, workers=3) as pooled:
                for s in paper_net.nodes():
                    for t in paper_net.nodes():
                        if s == t:
                            continue
                        assert pooled.cost(s, t) == sync_service.cost(s, t)

    def test_submit_returns_future(self, paper_net):
        with RoutingService(paper_net, workers=2) as service:
            future = service.submit(1, 7)
            assert future.result(timeout=30.0).total_cost == 2.0

    def test_overload_propagates(self, paper_net):
        service = RoutingService(paper_net, workers=0, queue_limit=1)
        service.submit(1, 7)
        with pytest.raises(ServiceOverloadError):
            service.submit(1, 6)

    def test_metrics_snapshot_contents(self, paper_net):
        with RoutingService(paper_net, workers=0) as service:
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
        with RoutingService(paper_net, workers=0) as service:
            service.route(1, 7)
            text = service.render_metrics()
            assert "engine.served: 1" in text

    def test_invalidation_hooks_bump_epoch(self, paper_net):
        with RoutingService(paper_net, workers=0) as service:
            service.route(1, 7)
            assert service.epoch == 0
            service.notify_link_degraded(1, 2)
            assert service.epoch == 1
            service.notify_link_recovered(1, 2)
            assert service.epoch == 2
            service.invalidate()
            assert service.epoch == 3


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
        service = RoutingService(provisioner.residual_network, workers=0)
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
        service = RoutingService(provisioner.residual_network, workers=0)
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
