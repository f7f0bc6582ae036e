"""Dijkstra's algorithm with a pluggable addressable heap.

This is the engine behind Theorem 1: a single-source shortest-path run over
the auxiliary graph ``G_{s,t}`` with a Fibonacci heap yields the paper's
``O(k²n + km + kn·log(kn))`` bound.  The implementation:

* works on :class:`~repro.shortestpath.structures.StaticGraph`,
* accepts any heap satisfying the addressable protocol (``binary``,
  ``pairing``, ``fibonacci`` by name, or a factory),
* can stop early when a target settles (single-pair queries), and
* records predecessor node **and edge tag**, so routers can decode which
  parallel auxiliary edge the path used, and
* breaks distance ties by ascending node id (heap keys are
  ``(distance, node)`` tuples), so every kernel — including the flat
  heapq kernel in :mod:`repro.shortestpath.flat` — returns the *same*
  parent forest when multiple shortest paths exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.shortestpath.heaps import HEAP_FACTORIES, AddressableHeap
from repro.shortestpath.structures import StaticGraph

__all__ = ["DijkstraResult", "dijkstra"]

INF = math.inf


@dataclass(frozen=True)
class DijkstraResult:
    """Outcome of one Dijkstra run.

    Attributes
    ----------
    source:
        The source node id (or several, for virtual multi-source runs).
    dist:
        ``dist[v]`` is the shortest-path distance from the source set to
        ``v`` (``math.inf`` if unreachable).
    parent:
        ``parent[v]`` is the predecessor of ``v`` on a shortest path, or
        ``-1`` for the source / unreachable nodes.
    parent_tag:
        The tag of the edge ``parent[v] -> v`` used by the shortest path
        (``-1`` where undefined).  Tags let callers map auxiliary-graph
        edges back to wavelengths and conversions.
    settled:
        Number of nodes popped from the heap (== nodes with final distance).
    relaxations:
        Number of edge relaxations attempted.
    stopped_at:
        The target node whose settling ended the search early, or ``-1``
        when the search ran to exhaustion.  With a *targets* set this
        identifies which member attained the minimum distance.
    """

    source: tuple[int, ...]
    dist: "Sequence[float]"
    parent: "Sequence[int]"
    parent_tag: "Sequence[int]"
    settled: int
    relaxations: int
    heap_stats: dict[str, int] = field(default_factory=dict)
    stopped_at: int = -1

    def reachable(self, node: int) -> bool:
        """True if *node* has a finite distance."""
        return self.dist[node] < INF


def dijkstra(
    graph: StaticGraph,
    sources: int | Iterable[int],
    target: int | None = None,
    heap: str | Callable[[], AddressableHeap] = "binary",
    targets: Iterable[int] | None = None,
) -> DijkstraResult:
    """Single-source (or multi-source) shortest paths on *graph*.

    Parameters
    ----------
    graph:
        A :class:`StaticGraph` with nonnegative edge weights.
    sources:
        One node id, or an iterable of node ids all given distance 0 (a
        virtual super-source, used by ``G_{s,t}``'s zero-cost fan-out).
    target:
        If given, the search stops as soon as *target* is settled; distances
        of nodes not yet settled are then upper bounds or ``inf``.
    heap:
        Heap name (``"binary"``, ``"pairing"``, ``"fibonacci"``), a
        zero-argument factory returning an addressable heap, or ``"flat"``
        to delegate to :func:`repro.shortestpath.flat.flat_dijkstra` (the
        heapq + lazy-deletion kernel; heap stats then report
        pushes/pops/stale instead of decrease-keys).
    targets:
        If given, stop as soon as *any* member settles; nodes settle in
        nondecreasing distance order, so the first settled member (exposed
        as ``stopped_at``) attains the minimum distance over the set.
        Mutually exclusive with *target*.

    Returns
    -------
    DijkstraResult

    Raises
    ------
    KeyError
        If *heap* names an unknown heap implementation.
    IndexError
        If a source or target id is out of range.
    """
    if isinstance(heap, str) and heap == "flat":
        from repro.shortestpath.flat import flat_dijkstra

        return flat_dijkstra(graph, sources, target=target, targets=targets)
    if isinstance(sources, int):
        source_tuple: tuple[int, ...] = (sources,)
    else:
        source_tuple = tuple(sources)
    if not source_tuple:
        raise ValueError("at least one source is required")
    for s in source_tuple:
        if not 0 <= s < graph.num_nodes:
            raise IndexError(f"source {s} out of range [0, {graph.num_nodes})")
    if target is not None and targets is not None:
        raise ValueError("pass either target or targets, not both")
    if target is not None and not 0 <= target < graph.num_nodes:
        raise IndexError(f"target {target} out of range [0, {graph.num_nodes})")
    target_set: frozenset[int] | None = None
    if targets is not None:
        target_set = frozenset(targets)
        for t in target_set:
            if not 0 <= t < graph.num_nodes:
                raise IndexError(f"target {t} out of range [0, {graph.num_nodes})")

    factory = HEAP_FACTORIES[heap] if isinstance(heap, str) else heap
    queue = factory()

    n = graph.num_nodes
    dist = [INF] * n
    parent = [-1] * n
    parent_tag = [-1] * n
    settled = 0
    relaxations = 0
    stopped_at = -1

    # Heap keys are (distance, node) tuples so that equal-distance nodes
    # settle in ascending node-id order.  Every kernel (binary, pairing,
    # fibonacci, flat) shares this tie-break, which makes the returned
    # parent forest — and hence decoded paths — identical across kernels
    # even when multiple shortest paths exist.
    for s in source_tuple:
        if dist[s] != 0.0:
            dist[s] = 0.0
            queue.push(s, (0.0, s))

    done = [False] * n
    while len(queue):
        u, key = queue.pop()
        du = key[0]
        if done[u]:
            continue
        done[u] = True
        settled += 1
        if target is not None and u == target:
            stopped_at = u
            break
        if target_set is not None and u in target_set:
            stopped_at = u
            break
        slots, heads, weights, tags = graph.neighbor_slices(u)
        for i in slots:
            v = heads[i]
            if done[v]:
                continue
            relaxations += 1
            alt = du + weights[i]
            if alt < dist[v]:
                if dist[v] == INF:
                    queue.push(v, (alt, v))
                else:
                    queue.decrease_key(v, (alt, v))
                dist[v] = alt
                parent[v] = u
                parent_tag[v] = tags[i]

    stats = {
        "pushes": getattr(queue, "pushes", 0),
        "pops": getattr(queue, "pops", 0),
        "decreases": getattr(queue, "decreases", 0),
    }
    return DijkstraResult(
        source=source_tuple,
        dist=dist,
        parent=parent,
        parent_tag=parent_tag,
        settled=settled,
        relaxations=relaxations,
        heap_stats=stats,
        stopped_at=stopped_at,
    )
