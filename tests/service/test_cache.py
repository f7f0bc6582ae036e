"""Epoch-versioned cache: hits, invalidation, patched degradation."""

import math

import pytest

from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent
from repro.service.cache import EpochRouterCache
from repro.service.metrics import MetricsRegistry
from repro.topology.reference import nsfnet_network


class TestWarmServing:
    def test_matches_per_query_router_costs(self, paper_net):
        cache = EpochRouterCache(paper_net)
        single = LiangShenRouter(paper_net)
        for s in paper_net.nodes():
            for t in paper_net.nodes():
                if s == t:
                    continue
                try:
                    expected = single.route(s, t).cost
                except NoPathError:
                    expected = None
                if expected is None:
                    assert cache.cost(s, t) == math.inf
                    with pytest.raises(NoPathError):
                        cache.route(s, t)
                else:
                    assert cache.cost(s, t) == pytest.approx(expected)

    def test_hits_and_misses(self, paper_net):
        cache = EpochRouterCache(paper_net)
        cache.route(1, 7)
        cache.route(1, 6)  # same source: warm
        cache.route(2, 7)  # new source: miss
        counters = cache.counters()
        assert counters["misses"] == 2
        assert counters["hits"] == 1
        assert cache.cached_sources == 2
        assert cache.rebuilds == 1

    def test_same_node_queries(self, paper_net):
        cache = EpochRouterCache(paper_net)
        assert cache.cost(1, 1) == 0.0
        with pytest.raises(ValueError):
            cache.route(1, 1)

    def test_tree_returns_copy(self, paper_net):
        cache = EpochRouterCache(paper_net)
        cache.tree(1).clear()
        assert cache.tree(1)

    def test_callable_network_factory(self, paper_net):
        calls = []

        def factory():
            calls.append(1)
            return paper_net

        cache = EpochRouterCache(factory)
        cache.route(1, 7)
        cache.route(1, 6)
        assert len(calls) == 1  # once per rebuild, not per query
        cache.invalidate()
        cache.route(1, 7)
        assert len(calls) == 2


class TestEpochs:
    def test_bumps_are_cheap_and_lazy(self, paper_net):
        cache = EpochRouterCache(paper_net)
        cache.route(1, 7)
        assert cache.epoch == 0
        cache.invalidate()
        cache.invalidate()
        assert cache.epoch == 2
        assert cache.built_epoch == 0  # nothing rebuilt yet
        cache.route(1, 7)
        assert cache.built_epoch == 2
        assert cache.rebuilds == 2

    def test_full_invalidation_drops_all_trees(self, paper_net):
        cache = EpochRouterCache(paper_net)
        cache.route(1, 7)
        cache.route(2, 7)
        cache.invalidate()
        cache.route(1, 7)
        assert cache.counters()["trees_dropped"] == 2
        assert cache.cached_sources == 1

    def test_degradation_keeps_untouched_trees(self, paper_net):
        cache = EpochRouterCache(paper_net)
        hop = cache.route(1, 7).hops[0]
        cache.route(2, 7)
        # Degrade a channel the source-1 tree uses: G_all is patched, not
        # rebuilt, and both trees are repaired in place.
        cache.mark_channel_degraded(hop.tail, hop.head, hop.wavelength)
        cache.route(2, 7)
        counters = cache.counters()
        assert counters["rebuilds"] == 1
        assert counters["patches"] == 1
        assert counters["trees_kept"] == 2
        assert counters["trees_dropped"] == 0
        assert cache.cached_sources == 2

    def test_whole_link_degradation(self, paper_net):
        injector = FaultInjector(paper_net)
        cache = EpochRouterCache(injector.network_view)
        hop = cache.route(1, 7).hops[0]
        link = paper_net.link(hop.tail, hop.head)
        for wavelength in link.costs:
            injector.apply(
                FaultEvent(
                    0.5,
                    "channel_fail",
                    tail=hop.tail,
                    head=hop.head,
                    wavelength=wavelength,
                )
            )
        cache.mark_channel_degraded(hop.tail, hop.head)  # all wavelengths
        rerouted = cache.route(1, 7)
        assert (hop.tail, hop.head) not in {(h.tail, h.head) for h in rerouted.hops}
        expected = LiangShenRouter(injector.network_view()).route(1, 7).path
        assert rerouted.hops == expected.hops
        assert rerouted.total_cost == expected.total_cost
        counters = cache.counters()
        assert counters["rebuilds"] == 1
        assert counters["patches"] == 1
        assert counters["trees_kept"] == 1
        assert counters["trees_dropped"] == 0


class TestPostMutationCorrectness:
    """The acceptance contract: cache answers match a fresh router."""

    def _mutated_copies(self):
        """A network plus the same network with one channel removed."""
        net = nsfnet_network(num_wavelengths=3, seed=3)
        link = next(iter(net.links()))
        wavelength = min(link.costs)
        shrunk = net.copy()
        # Rebuild the shrunk network without one channel.
        from repro.core.network import WDMNetwork

        shrunk = WDMNetwork(net.num_wavelengths, net.conversion(net.nodes()[0]))
        for node in net.nodes():
            shrunk.add_node(node, net.conversion(node))
        for other in net.links():
            costs = dict(other.costs)
            if other.tail == link.tail and other.head == link.head:
                del costs[wavelength]
            if costs:
                shrunk.add_link(other.tail, other.head, costs)
        return net, shrunk, (link.tail, link.head, wavelength)

    def test_degraded_routes_match_fresh_router_costs(self):
        net, shrunk, (tail, head, wavelength) = self._mutated_copies()
        view = {"net": net}
        cache = EpochRouterCache(lambda: view["net"])
        for source in net.nodes():
            cache.tree(source)  # warm every tree
        view["net"] = shrunk
        cache.mark_channel_degraded(tail, head, wavelength)
        fresh = LiangShenRouter(shrunk)
        for source in shrunk.nodes():
            for target in shrunk.nodes():
                if source == target:
                    continue
                try:
                    expected = fresh.route(source, target).cost
                except NoPathError:
                    expected = math.inf
                assert cache.cost(source, target) == pytest.approx(expected), (
                    source,
                    target,
                )

    def test_full_invalidation_byte_identical_to_cold(self):
        net, shrunk, (tail, head, wavelength) = self._mutated_copies()
        view = {"net": net}
        warm = EpochRouterCache(lambda: view["net"])
        for source in net.nodes():
            warm.tree(source)
        view["net"] = shrunk
        warm.invalidate()
        cold = EpochRouterCache(shrunk)
        for source in shrunk.nodes():
            assert warm.tree(source) == cold.tree(source)


class TestMetricsIntegration:
    def test_registry_counters_track(self, paper_net):
        registry = MetricsRegistry()
        cache = EpochRouterCache(paper_net, metrics=registry)
        cache.route(1, 7)
        cache.route(1, 6)
        cache.invalidate()
        cache.route(1, 7)
        snap = registry.snapshot()
        assert snap["cache.hits"] == 1
        assert snap["cache.misses"] == 2
        assert snap["cache.rebuilds"] == 2
        assert snap["cache.trees_dropped"] == 1
        assert snap["cache.epoch"] == 1
        assert snap["cache.tree_build.count"] == 2
