"""Unit tests for the LiangShenRouter (Theorem 1, Corollary 1)."""

import math

import pytest

from repro.core.conversion import NoConversion
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError


class TestSinglePair:
    def test_tiny_optimum(self, tiny_net):
        result = LiangShenRouter(tiny_net).route("a", "c")
        assert result.cost == pytest.approx(2.5)
        assert result.path.nodes() == ["a", "b", "c"]
        assert result.path.wavelengths() == [0, 1]

    def test_direct_wins_when_conversion_expensive(self, tiny_net):
        # Make conversion at b cost 5: a-b-c costs 7, direct a-c costs 4.
        from repro.core.conversion import FixedCostConversion

        tiny_net.set_conversion("b", FixedCostConversion(5.0))
        result = LiangShenRouter(tiny_net).route("a", "c")
        assert result.cost == pytest.approx(4.0)
        assert result.path.nodes() == ["a", "c"]

    def test_path_is_valid_and_priced_correctly(self, paper_net):
        router = LiangShenRouter(paper_net)
        result = router.route(1, 7)
        result.path.validate(paper_net)
        assert result.path.source == 1
        assert result.path.target == 7

    def test_no_path_raises(self):
        net = WDMNetwork(num_wavelengths=1)
        net.add_nodes(["a", "b"])
        with pytest.raises(NoPathError):
            LiangShenRouter(net).route("a", "b")

    def test_dark_link_is_unusable(self):
        net = WDMNetwork(num_wavelengths=2)
        net.add_nodes(["a", "b"])
        net.add_link("a", "b", {})  # no wavelengths
        with pytest.raises(NoPathError):
            LiangShenRouter(net).route("a", "b")

    def test_wavelength_continuity_blocks_without_conversion(self):
        net = WDMNetwork(num_wavelengths=2, default_conversion=NoConversion())
        net.add_nodes(["a", "b", "c"])
        net.add_link("a", "b", {0: 1.0})
        net.add_link("b", "c", {1: 1.0})  # different wavelength, no converter
        with pytest.raises(NoPathError):
            LiangShenRouter(net).route("a", "c")

    def test_lightpath_found_when_continuous(self):
        net = WDMNetwork(num_wavelengths=2, default_conversion=NoConversion())
        net.add_nodes(["a", "b", "c"])
        net.add_link("a", "b", {0: 1.0, 1: 5.0})
        net.add_link("b", "c", {1: 1.0})
        result = LiangShenRouter(net).route("a", "c")
        assert result.path.is_lightpath
        assert result.path.wavelengths() == [1, 1]
        assert result.cost == pytest.approx(6.0)

    def test_same_endpoints_rejected(self, tiny_net):
        with pytest.raises(ValueError):
            LiangShenRouter(tiny_net).route("a", "a")

    @pytest.mark.parametrize("heap", ["binary", "pairing", "fibonacci"])
    def test_heap_choice_same_answer(self, paper_net, heap):
        result = LiangShenRouter(paper_net, heap=heap).route(1, 7)
        assert result.cost == pytest.approx(2.0)

    def test_stats_populated(self, paper_net):
        result = LiangShenRouter(paper_net).route(1, 7)
        assert result.stats.settled > 0
        assert result.stats.relaxations > 0
        assert result.stats.sizes.within_bounds()
        assert result.stats.total_heap_ops > 0


class TestWavelengthChoice:
    def test_picks_cheaper_wavelength_on_same_link(self):
        net = WDMNetwork(num_wavelengths=2)
        net.add_nodes(["a", "b"])
        net.add_link("a", "b", {0: 9.0, 1: 2.0})
        result = LiangShenRouter(net).route("a", "b")
        assert result.path.wavelengths() == [1]
        assert result.cost == pytest.approx(2.0)

    def test_conversion_vs_expensive_continuation(self):
        # Staying on λ1 costs 10 on the second link; converting to λ2 (0.1)
        # and paying 1 is better.
        from repro.core.conversion import FixedCostConversion

        net = WDMNetwork(
            num_wavelengths=2, default_conversion=FixedCostConversion(0.1)
        )
        net.add_nodes(["a", "b", "c"])
        net.add_link("a", "b", {0: 1.0})
        net.add_link("b", "c", {0: 10.0, 1: 1.0})
        result = LiangShenRouter(net).route("a", "c")
        assert result.path.wavelengths() == [0, 1]
        assert result.cost == pytest.approx(2.1)


class TestRouteTree:
    def test_tree_matches_single_pair(self, paper_net):
        router = LiangShenRouter(paper_net)
        tree = router.route_tree(1)
        for target, path in tree.items():
            single = router.route(1, target)
            assert path.total_cost == pytest.approx(single.cost)
            path.validate(paper_net)

    def test_tree_excludes_source(self, paper_net):
        tree = LiangShenRouter(paper_net).route_tree(1)
        assert 1 not in tree

    def test_tree_omits_unreachable(self):
        net = WDMNetwork(num_wavelengths=1)
        net.add_nodes(["a", "b", "c"])
        net.add_link("a", "b", {0: 1.0})
        tree = LiangShenRouter(net).route_tree("a")
        assert set(tree) == {"b"}


class TestAllPairs:
    def test_matches_pairwise_routing(self, paper_net):
        router = LiangShenRouter(paper_net)
        result = router.route_all_pairs()
        for s in paper_net.nodes():
            for t in paper_net.nodes():
                if s == t:
                    continue
                try:
                    expected = router.route(s, t).cost
                except NoPathError:
                    expected = math.inf
                assert result.cost(s, t) == pytest.approx(expected)

    def test_paths_validate(self, paper_net):
        result = LiangShenRouter(paper_net).route_all_pairs()
        for path in result.paths.values():
            path.validate(paper_net)

    def test_unreachable_pairs_absent(self, paper_net):
        result = LiangShenRouter(paper_net).route_all_pairs()
        # Node 7 has no out-links in the paper example.
        assert all(s != 7 for (s, _t) in result.paths)
        assert result.cost(7, 1) == math.inf

    def test_aggregate_stats(self, paper_net):
        router = LiangShenRouter(paper_net)
        result = router.route_all_pairs()
        assert result.stats.settled > 0
        assert result.stats.relaxations > 0
        assert result.stats.sizes == router.all_pairs_graph().sizes

    @pytest.mark.parametrize("nodes", [[], ["solo"]])
    def test_no_pairs_on_tiny_networks(self, nodes):
        net = WDMNetwork(num_wavelengths=2)
        net.add_nodes(nodes)
        result = LiangShenRouter(net).route_all_pairs()
        assert result.paths == {}
        # A lone source settles only its own virtual terminal.
        assert result.stats.settled == len(nodes)

    @pytest.mark.parametrize("heap", ["binary", "pairing", "fibonacci"])
    def test_every_kernel_gives_the_flat_paths(self, paper_net, heap):
        flat = LiangShenRouter(paper_net).route_all_pairs()
        other = LiangShenRouter(paper_net, heap=heap).route_all_pairs()
        assert list(other.paths) == list(flat.paths)
        assert {p: (v.hops, v.total_cost) for p, v in other.paths.items()} == {
            p: (v.hops, v.total_cost) for p, v in flat.paths.items()
        }
