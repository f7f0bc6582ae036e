"""Compact digraph structures used by the shortest-path algorithms.

The routers materialize auxiliary graphs (``G'``, ``G_{s,t}``, ``G_all`` and
the CFZ wavelength graph) as :class:`StaticGraph` instances: a frozen
CSR-style adjacency list over dense integer node ids ``0 .. n-1``.  This
representation is allocation-light, cache-friendly for Python standards, and
makes the size accounting required by the paper's Observations 1-5 exact
(``num_nodes`` / ``num_edges`` are just lengths).

Graphs are built incrementally through :class:`GraphBuilder` (one edge at
a time, or many at once with :meth:`GraphBuilder.add_edges`) and frozen
with :meth:`GraphBuilder.build`; a frozen graph is immutable.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro._validation import check_nonnegative_int

__all__ = ["GraphBuilder", "StaticGraph"]


class GraphBuilder:
    """Incremental builder for :class:`StaticGraph`.

    Nodes are the integers ``0 .. num_nodes - 1``.  Edges are added with
    :meth:`add_edge` and may carry an optional integer *tag* (used by the
    routers to map auxiliary-graph edges back to network artifacts).

    Example
    -------
    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1, 2.5)
    0
    >>> b.add_edge(1, 2, 1.0, tag=7)
    1
    >>> g = b.build()
    >>> list(g.neighbors(0))
    [(1, 2.5, -1)]
    """

    def __init__(self, num_nodes: int) -> None:
        self._num_nodes = check_nonnegative_int(num_nodes, "num_nodes")
        self._tails: array = array("q")
        self._heads: array = array("q")
        self._weights: array = array("d")
        self._tags: array = array("q")

    @property
    def num_nodes(self) -> int:
        """Number of nodes the built graph will have."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges added so far."""
        return len(self._tails)

    def add_node(self) -> int:
        """Append one node and return its id."""
        node = self._num_nodes
        self._num_nodes += 1
        return node

    def add_edge(self, tail: int, head: int, weight: float, tag: int = -1) -> int:
        """Add a directed edge ``tail -> head`` and return its edge id.

        Parallel edges and self-loops are permitted (the multigraph ``G_M``
        needs parallel edges).  *weight* must be a nonnegative finite float;
        infinite weights model absent resources and must be expressed by not
        adding the edge at all.
        """
        if not 0 <= tail < self._num_nodes:
            raise IndexError(f"tail {tail} out of range [0, {self._num_nodes})")
        if not 0 <= head < self._num_nodes:
            raise IndexError(f"head {head} out of range [0, {self._num_nodes})")
        w = float(weight)
        if w != w or w == float("inf") or w < 0:
            raise ValueError(f"edge weight must be finite and >= 0, got {weight!r}")
        edge_id = len(self._tails)
        self._tails.append(tail)
        self._heads.append(head)
        self._weights.append(w)
        self._tags.append(tag)
        return edge_id

    def add_edges(
        self,
        tails: Iterable[int],
        heads: Iterable[int],
        weights: Iterable[float],
    ) -> range:
        """Add many untagged edges at once; returns their edge ids.

        Edge ``i`` runs ``tails[i] -> heads[i]`` at ``weights[i]``, and
        the edges take consecutive ids in the given order, exactly as the
        same sequence of :meth:`add_edge` calls would.  The checks of
        :meth:`add_edge` run over whole arrays (endpoints in range,
        weights finite and nonnegative); on failure nothing is added.
        """
        tails = array("q", tails)
        heads = array("q", heads)
        weights = array("d", weights)
        count = len(tails)
        if len(heads) != count or len(weights) != count:
            raise ValueError(
                f"add_edges needs equal lengths, got {count} tails, "
                f"{len(heads)} heads and {len(weights)} weights"
            )
        n = self._num_nodes
        for name, ends in (("tail", tails), ("head", heads)):
            if count and not 0 <= min(ends) <= max(ends) < n:
                raise IndexError(
                    f"{name}s {min(ends)}..{max(ends)} out of range [0, {n})"
                )
        if not all(map(math.isfinite, weights)) or (count and min(weights) < 0):
            raise ValueError("edge weights must be finite and >= 0")
        first = len(self._tails)
        self._tails.extend(tails)
        self._heads.extend(heads)
        self._weights.extend(weights)
        self._tags.extend(array("q", [-1]) * count)
        return range(first, first + count)

    def build(self) -> "StaticGraph":
        """Freeze into a :class:`StaticGraph`.

        A stable counting sort by tail, linear in nodes plus edges: each
        edge id joins its tail's bucket in insertion order, the buckets
        concatenated give the CSR slot order, and their sizes the
        offsets.  Every per-edge step runs inside a C-level call
        (``list.append`` through ``map``, ``chain``, ``itemgetter``), so
        the sort executes no Python bytecode per edge.  Slot ``i`` of
        the result holds the edge whose insertion id is ``edge_ids[i]``.
        """
        n = self._num_nodes
        buckets: list[list[int]] = [[] for _ in range(n)]
        edge_count = len(self._tails)
        deque(
            map(list.append, _gather(buckets, self._tails), range(edge_count)),
            maxlen=0,
        )
        edge_ids = array("q", chain.from_iterable(buckets))
        offsets = array("q", [0])
        offsets.extend(accumulate(map(len, buckets)))
        heads = array("q", _gather(self._heads, edge_ids))
        weights = array("d", _gather(self._weights, edge_ids))
        tags = array("q", _gather(self._tags, edge_ids))
        return StaticGraph(n, offsets, heads, weights, tags, edge_ids)


def _gather(values: Sequence, indices: Sequence[int]) -> Sequence:
    """``[values[i] for i in indices]``, by one C-level ``itemgetter`` call."""
    if len(indices) < 2:  # itemgetter() takes >= 1 index, returns a bare item for 1
        return [values[i] for i in indices]
    return itemgetter(*indices)(values)


class StaticGraph:
    """Frozen CSR adjacency-list digraph over integer node ids.

    Instances are produced by :class:`GraphBuilder` and are immutable.  Edge
    traversal order within a node follows insertion order in the builder.
    """

    __slots__ = (
        "_n",
        "_offsets",
        "_heads",
        "_weights",
        "_tags",
        "_edge_ids",
    )

    def __init__(
        self,
        num_nodes: int,
        offsets: Sequence[int],
        heads: Sequence[int],
        weights: Sequence[float],
        tags: Sequence[int],
        edge_ids: Sequence[int],
    ) -> None:
        self._n = num_nodes
        self._offsets = offsets
        self._heads = heads
        self._weights = weights
        self._tags = tags
        self._edge_ids = edge_ids

    @property
    def num_nodes(self) -> int:
        """Number of nodes (ids ``0 .. num_nodes - 1``)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._heads)

    def out_degree(self, node: int) -> int:
        """Out-degree of *node*."""
        self._check_node(node)
        return self._offsets[node + 1] - self._offsets[node]

    def neighbors(self, node: int) -> Iterator[tuple[int, float, int]]:
        """Yield ``(head, weight, tag)`` for each out-edge of *node*."""
        self._check_node(node)
        heads = self._heads
        weights = self._weights
        tags = self._tags
        for i in range(self._offsets[node], self._offsets[node + 1]):
            yield heads[i], weights[i], tags[i]

    @property
    def edge_ids(self) -> Sequence[int]:
        """``edge_ids[slot]`` is the builder insertion id of that CSR slot.

        The counting sort in :meth:`GraphBuilder.build` is stable, so the
        insertion order is fully recoverable — the delta-overlay layer
        uses it to re-emit a patched graph in the exact order a fresh
        build would have produced.
        """
        return self._edge_ids

    def csr(self) -> tuple[Sequence[int], Sequence[int], Sequence[float], Sequence[int]]:
        """The raw CSR arrays ``(offsets, heads, weights, tags)``.

        The out-edges of node ``u`` occupy slots ``offsets[u]`` to
        ``offsets[u + 1]``.  Exposed for kernels (e.g. the flat Dijkstra
        fast path) that hoist every attribute lookup out of their inner
        loop; callers must treat the arrays as read-only.
        """
        return self._offsets, self._heads, self._weights, self._tags

    def neighbor_slices(self, node: int) -> tuple[range, Sequence[int], Sequence[float], Sequence[int]]:
        """Low-level access: the CSR slot range plus the backing arrays.

        Exposed for the inner loop of Dijkstra, where generator overhead per
        edge would dominate.
        """
        self._check_node(node)
        return (
            range(self._offsets[node], self._offsets[node + 1]),
            self._heads,
            self._weights,
            self._tags,
        )

    def edges(self) -> Iterator[tuple[int, int, float, int]]:
        """Yield every edge as ``(tail, head, weight, tag)``."""
        for tail in range(self._n):
            for i in range(self._offsets[tail], self._offsets[tail + 1]):
                yield tail, self._heads[i], self._weights[i], self._tags[i]

    def reverse(self) -> "StaticGraph":
        """Return a new graph with every edge direction flipped."""
        builder = GraphBuilder(self._n)
        for tail, head, weight, tag in self.edges():
            builder.add_edge(head, tail, weight, tag)
        return builder.build()

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(sum(self._weights))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise IndexError(f"node {node} out of range [0, {self._n})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticGraph(num_nodes={self._n}, num_edges={self.num_edges})"
