"""Delta-epoch maintenance of the epoch router cache.

Every test drives the cache exactly as the serving stack does — fault
state lives in a :class:`FaultInjector` whose ``network_view`` is the
cache's factory, and notifications arrive through the ``mark_*``
methods — then checks both the *accounting* (patched vs rebuilt) and the
*answers* (hop-for-hop against a fresh router on the degraded view).
"""

import pytest

from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent
from repro.service.cache import EpochRouterCache
from repro.topology.reference import paper_figure1_network


def faulted_cache(net):
    injector = FaultInjector(net)
    cache = EpochRouterCache(injector.network_view)
    return injector, cache


def fail_channel(injector, cache, tail, head, wavelength):
    injector.apply(
        FaultEvent(0.5, "channel_fail", tail=tail, head=head, wavelength=wavelength)
    )
    cache.mark_channel_degraded(tail, head, wavelength)


def recover_channel(injector, cache, tail, head, wavelength):
    injector.apply(
        FaultEvent(0.5, "channel_recover", tail=tail, head=head, wavelength=wavelength)
    )
    cache.mark_channel_recovered(tail, head, wavelength)


def assert_matches_fresh(cache, injector, pairs):
    fresh = LiangShenRouter(injector.network_view(), heap="flat")
    for source, target in pairs:
        try:
            served = cache.route(source, target)
        except NoPathError:
            served = None
        try:
            expected = fresh.route(source, target).path
        except NoPathError:
            expected = None
        if expected is None:
            assert served is None, (source, target)
        else:
            assert served is not None, (source, target)
            assert served.hops == expected.hops, (source, target)
            assert served.total_cost == expected.total_cost


class TestIncrementalInvalidation:
    def test_fail_is_patched_not_rebuilt(self):
        injector, cache = faulted_cache(paper_figure1_network())
        baseline = cache.route(1, 7)
        hop = baseline.hops[0]
        fail_channel(injector, cache, hop.tail, hop.head, hop.wavelength)
        assert_matches_fresh(cache, injector, [(1, 7)])
        counters = cache.counters()
        assert counters["rebuilds"] == 1  # only the initial build
        assert counters["patches"] == 1
        assert counters["tree_patches"] == 1  # source 1's warm run repaired

    def test_recovery_is_patched_and_restores_routes(self):
        injector, cache = faulted_cache(paper_figure1_network())
        baseline = cache.route(1, 7)
        hop = baseline.hops[0]
        fail_channel(injector, cache, hop.tail, hop.head, hop.wavelength)
        cache.route(1, 7)
        recover_channel(injector, cache, hop.tail, hop.head, hop.wavelength)
        restored = cache.route(1, 7)
        assert restored.hops == baseline.hops
        assert restored.total_cost == baseline.total_cost
        counters = cache.counters()
        assert counters["rebuilds"] == 1  # recovery skipped the rebuild too
        assert counters["patches"] == 2

    def test_recovery_of_unknown_resource_falls_back_to_rebuild(self):
        injector, cache = faulted_cache(paper_figure1_network())
        cache.route(1, 7)
        # A wavelength the overlay never emitted a slot for: the
        # recovery would have to add structure, which a patch cannot —
        # it must trigger the fallback rebuild.
        cache.mark_channel_recovered(1, 2, 99)
        cache.route(1, 7)
        counters = cache.counters()
        assert counters["rebuilds"] == 2
        assert counters["patches"] == 0

    def test_invalidate_discards_queued_patch_ops(self):
        injector, cache = faulted_cache(paper_figure1_network())
        cache.route(1, 7)
        cache.mark_channel_degraded(1, 2, 0)
        cache.invalidate()
        cache.route(1, 7)
        counters = cache.counters()
        assert counters["rebuilds"] == 2
        assert counters["patches"] == 0

    def test_epoch_bumps_match_legacy_semantics(self):
        _, cache = faulted_cache(paper_figure1_network())
        assert cache.epoch == 0
        cache.mark_channel_degraded(1, 2, 0)
        cache.mark_channel_recovered(1, 2, 0)
        cache.mark_converter_failed(2)
        cache.mark_converter_recovered(2)
        cache.invalidate()
        assert cache.epoch == 5

    def test_warm_hits_are_counted_as_hits(self):
        injector, cache = faulted_cache(paper_figure1_network())
        cache.route(1, 7)
        cache.route(1, 2)
        counters = cache.counters()
        assert counters["misses"] == 1
        assert counters["hits"] == 1

    def test_reserved_path_is_masked_incrementally(self):
        injector, cache = faulted_cache(paper_figure1_network())
        path = cache.route(1, 7)
        for hop in path.hops:
            cache.mark_channel_degraded(hop.tail, hop.head, hop.wavelength)
        # Mirror the reservation in the fault state so the comparison
        # router sees the same residual network.
        for hop in path.hops:
            injector.apply(
                FaultEvent(
                    0.5,
                    "channel_fail",
                    tail=hop.tail,
                    head=hop.head,
                    wavelength=hop.wavelength,
                )
            )
        assert_matches_fresh(cache, injector, [(1, 7)])
        assert cache.counters()["patches"] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_legacy_cache_through_churn(self, seed):
        """Random fail/recover churn: every answer equals a fresh router's."""
        import random

        rng = random.Random(seed)
        net = paper_figure1_network()
        injector, cache = faulted_cache(net)
        channels = [
            (link.tail, link.head, w)
            for link in net.links()
            for w in sorted(link.costs)
        ]
        nodes = net.nodes()
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        failed: list[tuple] = []
        for _ in range(12):
            if failed and rng.random() < 0.4:
                tail, head, w = failed.pop(rng.randrange(len(failed)))
                recover_channel(injector, cache, tail, head, w)
            else:
                tail, head, w = rng.choice(channels)
                failed.append((tail, head, w))
                fail_channel(injector, cache, tail, head, w)
            assert_matches_fresh(cache, injector, rng.sample(pairs, 3))
