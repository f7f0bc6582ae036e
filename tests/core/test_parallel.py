"""Tests for process-parallel all-pairs routing."""

import pytest

from repro.core.network import WDMNetwork
from repro.core.parallel import _chunk, route_all_pairs_parallel
from repro.core.routing import LiangShenRouter
from repro.topology.generators import waxman_network
from repro.topology.reference import paper_figure1_network


def _as_comparable(result):
    """Paths (by hop tuples and cost) plus stats, for equality checks."""
    return (
        {pair: (path.hops, path.total_cost) for pair, path in result.paths.items()},
        result.stats.settled,
        result.stats.relaxations,
        dict(result.stats.heap),
        result.stats.sizes,
    )


class TestChunking:
    def test_partition_is_contiguous_and_complete(self):
        sources = list(range(10))
        chunks = _chunk(sources, 3)
        assert [x for chunk in chunks for x in chunk] == sources
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_more_chunks_than_sources(self):
        chunks = _chunk([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_at_least_one_chunk(self):
        assert _chunk([1], 0) == [[1]]


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_identical_to_serial_route_all_pairs(self, workers):
        net = paper_figure1_network()
        serial = LiangShenRouter(net).route_all_pairs()
        parallel = route_all_pairs_parallel(net, workers=workers)
        assert _as_comparable(parallel) == _as_comparable(serial)
        # Same insertion order too: merge happens in source-chunk order.
        assert list(parallel.paths) == list(serial.paths)

    def test_router_entry_point_dispatches(self):
        net = waxman_network(12, 3, seed=9)
        router = LiangShenRouter(net)
        serial = router.route_all_pairs(workers=1)
        fanned = router.route_all_pairs(workers=2)
        assert _as_comparable(fanned) == _as_comparable(serial)

    def test_binary_heap_kernel_in_workers(self):
        net = paper_figure1_network()
        flat = route_all_pairs_parallel(net, workers=2, heap="flat")
        binary = route_all_pairs_parallel(net, workers=2, heap="binary")
        assert {p: path.hops for p, path in flat.paths.items()} == {
            p: path.hops for p, path in binary.paths.items()
        }

    def test_prebuilt_aux_is_reused(self):
        net = paper_figure1_network()
        router = LiangShenRouter(net)
        aux = router.all_pairs_graph()
        result = route_all_pairs_parallel(net, workers=1, aux=aux)
        assert result.stats.sizes == aux.sizes


class TestEdgeCases:
    def test_single_worker_skips_the_pool(self):
        # workers=1 must answer in-process (no executor), yet through the
        # same merge path as the fanned run.
        net = paper_figure1_network()
        result = route_all_pairs_parallel(net, workers=1)
        assert _as_comparable(result) == _as_comparable(
            LiangShenRouter(net).route_all_pairs()
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_network(self, workers):
        net = WDMNetwork(num_wavelengths=2)
        result = route_all_pairs_parallel(net, workers=workers)
        assert result.paths == {}
        assert result.stats.settled == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_node_network(self, workers):
        net = WDMNetwork(num_wavelengths=2)
        net.add_node("solo")
        result = route_all_pairs_parallel(net, workers=workers)
        assert result.paths == {}

    @pytest.mark.parametrize("heap", ["binary", "pairing", "fibonacci"])
    def test_non_flat_kernels_single_worker(self, heap):
        net = paper_figure1_network()
        result = route_all_pairs_parallel(net, workers=1, heap=heap)
        assert _as_comparable(result)[0] == _as_comparable(
            LiangShenRouter(net).route_all_pairs()
        )[0]

    def test_worker_failure_propagates_instead_of_hanging(self):
        # An unknown heap name is only resolved inside the worker (run_tree
        # dispatch), so the raise happens mid-chunk in a child process.  The
        # pool must surface it to the caller and release its workers.
        with pytest.raises(ValueError, match="bogus"):
            route_all_pairs_parallel(
                paper_figure1_network(), workers=2, heap="bogus"
            )
        # The shared-state global must not leak after the failure.
        from repro.core.parallel import _SHARED

        assert _SHARED == {}


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            route_all_pairs_parallel(paper_figure1_network(), workers=0)

    def test_heap_factory_rejected(self):
        from repro.shortestpath.heaps import BinaryHeap

        with pytest.raises(TypeError):
            route_all_pairs_parallel(
                paper_figure1_network(), workers=2, heap=BinaryHeap
            )


class TestSharedMemoryPath:
    """The zero-copy pool path and its serial fallback."""

    def test_shared_path_matches_serial(self):
        net = paper_figure1_network()
        serial = LiangShenRouter(net).route_all_pairs()
        via_shared = route_all_pairs_parallel(net, workers=2)
        assert _as_comparable(via_shared) == _as_comparable(serial)
        assert list(via_shared.paths) == list(serial.paths)

    def test_no_segment_outlives_the_run(self):
        from repro.shortestpath.shared import leaked_segments

        before = set(leaked_segments())
        route_all_pairs_parallel(paper_figure1_network(), workers=2)
        assert set(leaked_segments()) - before == set()

    def test_segment_reaped_even_when_a_worker_raises(self):
        from repro.shortestpath.shared import leaked_segments

        before = set(leaked_segments())
        with pytest.raises(ValueError, match="bogus"):
            route_all_pairs_parallel(
                paper_figure1_network(), workers=2, heap="bogus"
            )
        assert set(leaked_segments()) - before == set()

    def test_share_failure_falls_back_to_serial(self, monkeypatch):
        import repro.core.parallel as parallel_mod
        import repro.shortestpath.shared as shared_mod

        def explode(*args, **kwargs):
            raise OSError("no shared memory")

        # Without shared memory no pool may start: the run must complete
        # in this process.
        monkeypatch.setattr(shared_mod, "share_all_pairs_graph", explode)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", explode)
        net = paper_figure1_network()
        result = route_all_pairs_parallel(net, workers=2)
        serial = LiangShenRouter(net).route_all_pairs()
        assert _as_comparable(result) == _as_comparable(serial)
        assert list(result.paths) == list(serial.paths)
