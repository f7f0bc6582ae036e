"""The kernel table: one name -> kernel map for every dispatch site."""

import pytest

from repro.core.routing import LiangShenRouter
from repro.shortestpath import _KERNELS, resolve_kernel
from repro.shortestpath.flat import flat_dijkstra
from repro.shortestpath.heaps import BinaryHeap
from repro.topology.reference import paper_figure1_network


class TestRegistry:
    def test_builtin_names(self):
        assert set(_KERNELS) == {"flat", "binary", "pairing", "fibonacci"}

    def test_flat_resolves_to_flat_kernel(self):
        assert resolve_kernel("flat") is flat_dijkstra

    def test_unknown_name_raises_with_inventory(self):
        with pytest.raises(ValueError, match="unknown kernel 'nope'"):
            resolve_kernel("nope")
        with pytest.raises(ValueError, match="flat"):
            resolve_kernel("nope")

    def test_callable_factory_wrapped(self):
        kernel = resolve_kernel(BinaryHeap)
        net = paper_figure1_network()
        router = LiangShenRouter(net)
        aux = router.layered_graph()
        run = kernel(aux.graph, 0, scratch=None)
        assert run.settled > 0


class TestRouterDispatch:
    def test_unknown_heap_fails_eagerly_at_construction(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            LiangShenRouter(paper_figure1_network(), heap="bogus")

    @pytest.mark.parametrize("heap", sorted(_KERNELS))
    def test_all_registered_kernels_route_identically(self, heap):
        net = paper_figure1_network()
        reference = LiangShenRouter(net, heap="flat").route(1, 7)
        result = LiangShenRouter(net, heap=heap).route(1, 7)
        assert result.path.hops == reference.path.hops
        assert result.cost == reference.cost
