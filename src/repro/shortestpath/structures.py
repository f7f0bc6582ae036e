"""Compact digraph structures used by the shortest-path algorithms.

The routers materialize auxiliary graphs (``G'``, ``G_{s,t}``, ``G_all`` and
the CFZ wavelength graph) as :class:`StaticGraph` instances: a frozen
CSR-style adjacency list over dense integer node ids ``0 .. n-1``.  This
representation is allocation-light, cache-friendly for Python standards, and
makes the size accounting required by the paper's Observations 1-5 exact
(``num_nodes`` / ``num_edges`` are just lengths).

Graphs are built incrementally through :class:`GraphBuilder` and frozen with
:meth:`GraphBuilder.build`; a frozen graph is immutable.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

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

    def build(self) -> "StaticGraph":
        """Freeze into a :class:`StaticGraph` (counting-sort by tail)."""
        n = self._num_nodes
        m = len(self._tails)
        counts = [0] * (n + 1)
        for t in self._tails:
            counts[t + 1] += 1
        for i in range(1, n + 1):
            counts[i] += counts[i - 1]
        heads = array("q", [0] * m)
        weights = array("d", [0.0] * m)
        tags = array("q", [0] * m)
        edge_ids = array("q", [0] * m)
        cursor = counts[:]
        for eid in range(m):
            t = self._tails[eid]
            slot = cursor[t]
            cursor[t] += 1
            heads[slot] = self._heads[eid]
            weights[slot] = self._weights[eid]
            tags[slot] = self._tags[eid]
            edge_ids[slot] = eid
        offsets = array("q", counts)
        return StaticGraph(n, offsets, heads, weights, tags, edge_ids)


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
