"""LazyForest: batched decoding from one parent forest, decoded on demand."""

import math

import pytest

from repro.core.batch import BatchRouter
from repro.core.forest import run_forest
from repro.core.routing import LiangShenRouter, run_tree
from repro.topology.reference import paper_figure1_network


@pytest.fixture
def net():
    return paper_figure1_network()


@pytest.fixture
def aux(net):
    return LiangShenRouter(net).all_pairs_graph()


class TestLazyForest:
    def test_paths_match_eager_tree(self, net, aux):
        for source in net.nodes():
            forest = run_forest(aux, source)
            tree, _ = run_tree(aux, source)
            assert forest.materialize().keys() == tree.keys()
            for target, path in tree.items():
                lazy = forest.path_to(target)
                assert lazy.hops == path.hops
                assert lazy.total_cost == path.total_cost

    def test_tree_stopped_at_a_target_resumes_to_the_rest(self, net, aux):
        # A warm tree searched only up to its first target answers every
        # later target exactly like the eager tree, resuming as it goes.
        for source in net.nodes():
            tree, _ = run_tree(aux, source)
            for first in net.nodes():
                forest = run_forest(aux, source, first)
                assert forest.decoded_targets == 0
                for target in net.nodes():
                    path = forest.path_to(target)
                    expected = tree.get(target)
                    assert (path is None) == (expected is None), (source, target)
                    if path is not None:
                        assert path.hops == expected.hops
                        assert path.total_cost == expected.total_cost
        # ... and that first search stopped short of the whole tree.
        assert not run_forest(aux, 1, 2).run.exhausted

    def test_decoding_is_lazy_and_memoized(self, aux):
        forest = run_forest(aux, 1)
        assert forest.decoded_targets == 0
        first = forest.path_to(7)
        assert forest.decoded_targets == 1
        assert forest.path_to(7) is first  # cache hit, not a re-decode
        assert forest.decoded_targets == 1

    def test_cost_does_not_decode(self, aux):
        forest = run_forest(aux, 1)
        cost = forest.cost(7)
        assert forest.decoded_targets == 0
        assert cost == forest.path_to(7).total_cost

    def test_source_maps_to_none_and_zero_cost(self, aux):
        forest = run_forest(aux, 1)
        assert forest.path_to(1) is None
        assert forest.cost(1) == 0.0

    def test_unknown_target_raises(self, aux):
        forest = run_forest(aux, 1)
        with pytest.raises(KeyError):
            forest.path_to("nonexistent")

    def test_unreachable_target_is_none_and_inf(self):
        from repro.core.network import WDMNetwork

        net = WDMNetwork(num_wavelengths=2)
        for v in range(3):
            net.add_node(v)
        net.add_link(0, 1, {0: 1.0})  # node 2 is dark
        aux = LiangShenRouter(net).all_pairs_graph()
        forest = run_forest(aux, 0)
        assert forest.path_to(2) is None
        assert forest.cost(2) == math.inf

    def test_materialize_reuses_decoded(self, aux):
        forest = run_forest(aux, 1)
        first = forest.path_to(7)
        tree = forest.materialize()
        assert tree[7] is first


class TestForestBackedBatchRouter:
    def test_counters_and_results(self, net):
        router = BatchRouter(net)
        path = router.route(1, 7)
        again = router.route(1, 6)
        assert router.cache_counters() == {"hits": 1, "misses": 1, "evictions": 0}
        assert path.total_cost == LiangShenRouter(net).route(1, 7).cost
        assert again.hops

    def test_point_query_decodes_only_its_target(self, net):
        router = BatchRouter(net)
        router.route(1, 7)
        assert router._forests[1].decoded_targets == 1

    def test_tree_matches_inner_router(self, net):
        router = BatchRouter(net)
        tree = router.tree(1)
        reference = LiangShenRouter(net).route_tree(1)
        assert tree.keys() == reference.keys()
        for t in tree:
            assert tree[t].hops == reference[t].hops

    def test_lru_eviction(self, net):
        router = BatchRouter(net, max_cached_trees=2)
        nodes = list(net.nodes())[:3]
        for s in nodes:
            router.cost(s, nodes[0] if s != nodes[0] else nodes[1])
        assert router.cached_sources == 2
        assert router.cache_evictions == 1

    def test_forest_survives_scratch_reuse(self, net):
        # The lifetime contract: a cached forest decodes correctly even
        # after other queries would have recycled shared scratch.
        router = BatchRouter(net)
        forest = router._forest(1)
        inner = router._inner
        for s in list(net.nodes())[:4]:
            if s != 1:
                inner.route_tree(s)  # churns the inner router's scratch pool
        assert forest.path_to(7).hops == LiangShenRouter(net).route(1, 7).path.hops
