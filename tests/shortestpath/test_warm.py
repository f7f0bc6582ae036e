"""Unit tests for the warm-started, repairable Dijkstra run."""

import math
import random

import pytest

from repro.shortestpath.flat import WarmRun, flat_dijkstra
from repro.shortestpath.structures import GraphBuilder

INF = math.inf


def diamond():
    """0 -> {1, 2} -> 3 with a cheaper upper branch."""
    b = GraphBuilder(4)
    b.add_edge(0, 1, 1.0, tag=1)
    b.add_edge(0, 2, 2.0, tag=2)
    b.add_edge(1, 3, 1.0, tag=3)
    b.add_edge(2, 3, 0.5, tag=4)
    return b.build()


def random_graph(trial, max_nodes=30):
    rng = random.Random(trial)
    n = rng.randint(2, max_nodes)
    b = GraphBuilder(n)
    for _ in range(rng.randint(0, 5 * n)):
        b.add_edge(rng.randrange(n), rng.randrange(n), rng.uniform(0, 10))
    return b.build()


def edge_slot(graph, tail, head):
    """CSR slot of the (unique) tail -> head edge."""
    offsets, heads, _, _ = graph.csr()
    for i in range(offsets[tail], offsets[tail + 1]):
        if heads[i] == head:
            return i
    raise AssertionError(f"no edge {tail} -> {head}")


def reverse_adjacency(graph):
    """``in_edges(head) -> [(tail, slot), ...]`` as the delta layer provides."""
    offsets, heads, _, _ = graph.csr()
    rev = {v: [] for v in range(graph.num_nodes)}
    for u in range(graph.num_nodes):
        for i in range(offsets[u], offsets[u + 1]):
            rev[heads[i]].append((u, i))
    return rev.__getitem__


def assert_matches_cold(warm, graph, sources):
    cold = flat_dijkstra(graph, sources)
    assert list(warm.dist) == list(cold.dist)
    assert list(warm.parent) == list(cold.parent)
    assert list(warm.parent_tag) == list(cold.parent_tag)


class TestWarmRun:
    def test_full_run_matches_cold_kernel(self):
        g = diamond()
        warm = WarmRun(g, 0)
        warm.run()
        assert warm.exhausted
        assert_matches_cold(warm, g, 0)

    def test_settled_target_is_free(self):
        g = diamond()
        warm = WarmRun(g, 0)
        assert warm.run(target=3) == 3
        pops = warm.pops
        assert warm.run(target=3) == 3
        assert warm.pops == pops  # answered from state, no new work

    def test_resume_after_partial_run(self):
        g = diamond()
        warm = WarmRun(g, 0)
        assert warm.run(target=1) == 1
        assert not warm.is_settled(3)
        warm.run()
        assert_matches_cold(warm, g, 0)

    def test_targets_return_min_dist_member(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        b.add_edge(0, 2, 3.0)
        warm = WarmRun(b.build(), 0)
        assert warm.run(targets=[1, 2]) == 1
        # The other member is reachable but must not have settled yet.
        assert not warm.is_settled(2)

    def test_targets_after_exhaustion_pick_settled_best(self):
        g = diamond()
        warm = WarmRun(g, 0)
        warm.run()
        assert warm.run(targets=[2, 3]) == 2  # dist 2.0 ties, lower id wins

    def test_unreachable_target_returns_minus_one(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        warm = WarmRun(b.build(), 0)
        assert warm.run(target=2) == -1
        assert warm.exhausted

    def test_target_and_targets_are_mutually_exclusive(self):
        warm = WarmRun(diamond(), 0)
        with pytest.raises(ValueError):
            warm.run(target=3, targets=[3])

    def test_multi_source_matches_cold_kernel(self):
        b = GraphBuilder(4)
        b.add_edge(0, 2, 5.0)
        b.add_edge(1, 2, 1.0)
        b.add_edge(2, 3, 1.0)
        g = b.build()
        warm = WarmRun(g, [0, 1])
        warm.run()
        assert_matches_cold(warm, g, [0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmRun(diamond(), [])
        with pytest.raises(IndexError):
            WarmRun(diamond(), 9)

    def test_counters_and_result_views(self):
        warm = WarmRun(diamond(), 0)
        warm.run()
        counters = warm.counters()
        assert set(counters) == {
            "pushes", "pops", "stale", "relaxations", "repairs"
        }
        result = warm.result(stopped_at=3)
        assert result.dist is warm.dist  # live view, not a copy
        assert result.stopped_at == 3


class TestRepair:
    def test_repair_matches_cold_run_on_masked_graph(self):
        g = diamond()
        warm = WarmRun(g, 0)
        warm.run()
        slot = edge_slot(g, 1, 3)
        g.csr()[2][slot] = INF
        affected = warm.repair([(1, 3)], reverse_adjacency(g))
        assert affected == [3]
        warm.run()
        assert_matches_cold(warm, g, 0)
        assert warm.dist[3] == 2.5  # now via 2, not 1
        assert warm.parent[3] == 2

    def test_masking_non_tree_edge_is_a_noop(self):
        g = diamond()
        warm = WarmRun(g, 0)
        warm.run()
        # 2 -> 3 is not the tree edge (3's parent is 1); no damage.
        slot = edge_slot(g, 2, 3)
        g.csr()[2][slot] = INF
        assert warm.repair([(2, 3)], reverse_adjacency(g)) == []
        assert_matches_cold(warm, g, 0)

    def test_repair_cuts_whole_subtree(self):
        # 0 -> 1 -> 2 -> 3 chain: masking 0 -> 1 orphans everything.
        b = GraphBuilder(4)
        for i in range(3):
            b.add_edge(i, i + 1, 1.0)
        g = b.build()
        warm = WarmRun(g, 0)
        warm.run()
        slot = edge_slot(g, 0, 1)
        g.csr()[2][slot] = INF
        affected = warm.repair([(0, 1)], reverse_adjacency(g))
        assert sorted(affected) == [1, 2, 3]
        warm.run()
        assert list(warm.dist) == [0.0, INF, INF, INF]

    @pytest.mark.parametrize("trial", range(25))
    def test_repaired_run_identical_to_cold_run(self, trial):
        """The tie-break parity invariant, on random graphs and masks."""
        rng = random.Random(1000 + trial)
        g = random_graph(trial)
        warm = WarmRun(g, 0)
        warm.run()
        offsets, heads, weights, _ = g.csr()
        finite = [
            (u, i)
            for u in range(g.num_nodes)
            for i in range(offsets[u], offsets[u + 1])
            if weights[i] != INF
        ]
        if not finite:
            return
        masked = []
        for u, i in rng.sample(finite, min(3, len(finite))):
            weights[i] = INF
            masked.append((u, heads[i]))
        warm.repair(masked, reverse_adjacency(g))
        warm.run()
        assert_matches_cold(warm, g, 0)

    @pytest.mark.parametrize("trial", range(25))
    def test_repaired_partial_run_identical_to_cold_run(self, trial):
        """The same invariant for runs stopped at a target: masks land
        between resumes to random targets, and after every resume each
        settled node agrees with a cold run on the graph as masked."""
        rng = random.Random(2000 + trial)
        g = random_graph(trial)
        n = g.num_nodes
        offsets, heads, weights, _ = g.csr()
        warm = WarmRun(g, 0)
        for _ in range(4):
            warm.run(target=rng.randrange(n))
            cold = flat_dijkstra(g, 0)
            for v in range(n):
                if warm.is_settled(v):
                    assert warm.dist[v] == cold.dist[v], v
                    assert warm.parent[v] == cold.parent[v], v
                    assert warm.parent_tag[v] == cold.parent_tag[v], v
            finite = [
                (u, i)
                for u in range(n)
                for i in range(offsets[u], offsets[u + 1])
                if weights[i] != INF
            ]
            masked = []
            for u, i in rng.sample(finite, min(2, len(finite))):
                weights[i] = INF
                masked.append((u, heads[i]))
            warm.repair(masked, reverse_adjacency(g))
        warm.run()
        assert_matches_cold(warm, g, 0)

    def test_repeated_repairs_accumulate(self):
        g = diamond()
        warm = WarmRun(g, 0)
        warm.run()
        # (1, 3) is the tree edge; after that repair (2, 3) becomes it.
        for tail, head in ((1, 3), (2, 3)):
            g.csr()[2][edge_slot(g, tail, head)] = INF
            warm.repair([(tail, head)], reverse_adjacency(g))
            warm.run()
            assert_matches_cold(warm, g, 0)
        assert warm.dist[3] == INF
        assert warm.repairs == 2
