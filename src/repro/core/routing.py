"""The Liang–Shen optimal-semilightpath router (Theorem 1, Corollary 1).

:class:`LiangShenRouter` answers three kinds of query:

* :meth:`~LiangShenRouter.route` — single pair ``(s, t)``.  The default
  **overlay** path builds the layered graph ``G'`` once per router and
  answers every query on it without mutation or copying: Dijkstra is
  seeded multi-source on ``Y_s`` (all distance 0, exactly what the
  virtual ``s'`` terminal's zero-weight fan-out achieves) and terminates
  on the first settled node of ``X_t`` (nodes settle in nondecreasing
  distance order, so that node attains ``min over X_t`` — what the
  virtual ``t''`` terminal computes).  This drops the dominant
  ``O(k²n + km)`` construction term from every warm query, leaving only
  Theorem 1's ``O(kn·log(kn))`` search term.  ``overlay=False`` restores
  the per-query ``G_{s,t}`` rebuild (Theorem 1's literal procedure —
  kept for tests, teaching, and complexity accounting).
* :meth:`~LiangShenRouter.route_tree` — one source to all targets: one
  shortest-path tree over the cached ``G_all`` (the building block of
  Corollary 1).
* :meth:`~LiangShenRouter.route_all_pairs` — all pairs: one tree per
  node over the shared cached ``G_all``, run serially in node order.

A router instance treats its network as **frozen**: ``G'`` and ``G_all``
are built lazily on first use and cached for the router's lifetime.
Call :meth:`~LiangShenRouter.invalidate` (or build a new router, as the
provisioning layers do per residual snapshot) after mutating the
network.

The decode step relies on the structure of auxiliary paths: they
alternate between *conversion* edges (inside one node's ``G_v``, from an
``X_v`` node to a ``Y_v`` node) and *original* edges (``Y_u → X_v``, one
per ``G_M`` link).  Each original edge contributes a hop; conversion
edges carry no hop but determine the wavelength switches, which the
:class:`Semilightpath` recovers from consecutive hop wavelengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.auxiliary import (
    KIND_IN,
    KIND_OUT,
    AllPairsGraph,
    AuxNode,
    LayeredGraph,
    build_all_pairs_graph,
    build_layered_graph,
    build_routing_graph,
)
from repro.core.instrumentation import QueryStats
from repro.core.semilightpath import Hop, Semilightpath
from repro.exceptions import InvalidPathError, NoPathError, UnknownNodeError
from repro.shortestpath import resolve_kernel
from repro.shortestpath.dijkstra import DijkstraResult
from repro.shortestpath.flat import ScratchBuffers, ScratchPool
from repro.shortestpath.heaps import AddressableHeap
from repro.shortestpath.paths import reconstruct_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "RouteResult",
    "AllPairsResult",
    "LiangShenRouter",
    "run_tree",
]

NodeId = Hashable


@dataclass(frozen=True)
class RouteResult:
    """A routed semilightpath plus the work it took to find it."""

    path: Semilightpath
    stats: QueryStats

    @property
    def cost(self) -> float:
        """Total cost of the routed semilightpath (Eq. 1)."""
        return self.path.total_cost


@dataclass(frozen=True)
class AllPairsResult:
    """Optimal semilightpaths for every ordered reachable pair.

    ``paths[(s, t)]`` holds the optimal semilightpath; unreachable pairs are
    absent.  ``stats`` aggregates the per-tree work.
    """

    paths: dict[tuple[NodeId, NodeId], Semilightpath]
    stats: QueryStats

    def cost(self, source: NodeId, target: NodeId) -> float:
        """Optimal cost for the pair, ``math.inf`` when unreachable."""
        path = self.paths.get((source, target))
        return math.inf if path is None else path.total_cost


class LiangShenRouter:
    """Optimal semilightpath routing via the layered-graph reduction.

    Parameters
    ----------
    network:
        The :class:`~repro.core.network.WDMNetwork` to route on.  Treated
        as frozen: the auxiliary graphs are cached per router instance
        (see :meth:`invalidate`).
    heap:
        Shortest-path kernel name, resolved once through the kernel table
        in :mod:`repro.shortestpath`: ``"flat"`` (default — heapq + lazy
        deletion over CSR arrays with reusable scratch buffers, the
        serving fast path), ``"binary"``, ``"pairing"``, ``"fibonacci"``
        (the addressable structures Theorem 1's complexity accounting
        uses; Fibonacci is the one the bound cites), or a factory
        callable returning an addressable heap.
    overlay:
        When True (default), single-pair queries run on the shared
        layered graph ``G'`` (built once, never mutated).  When False,
        every query rebuilds ``G_{s,t}`` — Theorem 1's literal
        construction, kept for tests and complexity accounting.

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> net = paper_figure1_network()
    >>> router = LiangShenRouter(net)
    >>> result = router.route(1, 7)
    >>> result.path.source, result.path.target
    (1, 7)
    """

    def __init__(
        self,
        network: "WDMNetwork",
        heap: str | Callable[[], AddressableHeap] = "flat",
        overlay: bool = True,
    ) -> None:
        self.network = network
        self.heap = heap
        self._kernel = resolve_kernel(heap)
        self.overlay = overlay
        self._layered: LayeredGraph | None = None
        self._all_pairs: AllPairsGraph | None = None
        self._pool = ScratchPool()

    # -- cached auxiliary graphs ---------------------------------------------

    def layered_graph(self) -> LayeredGraph:
        """The shared ``G'`` overlay (built lazily, cached)."""
        if self._layered is None:
            self._layered = build_layered_graph(self.network)
        return self._layered

    def all_pairs_graph(self) -> AllPairsGraph:
        """The shared ``G_all`` (built lazily, cached)."""
        if self._all_pairs is None:
            self._all_pairs = build_all_pairs_graph(self.network)
        return self._all_pairs

    def invalidate(self) -> None:
        """Drop the cached auxiliary graphs after a network mutation."""
        self._layered = None
        self._all_pairs = None

    # -- single pair (Theorem 1) ---------------------------------------------

    def route(self, source: NodeId, target: NodeId) -> RouteResult:
        """Find an optimal semilightpath from *source* to *target*.

        Raises :class:`~repro.exceptions.NoPathError` when no semilightpath
        exists (including when the endpoints have no usable wavelengths).
        """
        if not self.overlay:
            return self._route_rebuild(source, target)
        if not self.network.has_node(source):
            raise UnknownNodeError(source)
        if not self.network.has_node(target):
            raise UnknownNodeError(target)
        if source == target:
            raise ValueError("source and target must differ")
        aux = self.layered_graph()
        seeds = aux.y_by_node.get(source)
        sinks = aux.x_by_node.get(target)
        if not seeds or not sinks:
            raise NoPathError(source, target)
        run = self._run(aux.graph, seeds, targets=sinks)
        if run.stopped_at < 0:
            raise NoPathError(source, target)
        best = run.dist[run.stopped_at]
        aux_path = reconstruct_path(run.parent, run.stopped_at)
        path = _decode(aux.decode, aux_path, best)
        return RouteResult(path=path, stats=_stats(aux.sizes, run))

    def _route_rebuild(self, source: NodeId, target: NodeId) -> RouteResult:
        """Theorem 1 verbatim: build ``G_{s,t}``, search ``s' → t''``."""
        aux = build_routing_graph(self.network, source, target)
        run = self._run(aux.graph, aux.source_id, target=aux.sink_id)
        if run.dist[aux.sink_id] == math.inf:
            raise NoPathError(source, target)
        aux_path = reconstruct_path(run.parent, aux.sink_id)
        path = _decode(aux.decode, aux_path, run.dist[aux.sink_id])
        return RouteResult(path=path, stats=_stats(aux.sizes, run))

    def route_via_all_pairs(self, source: NodeId, target: NodeId) -> RouteResult:
        """Single-pair query over the cached ``G_all`` (no graph build).

        Answers are hop-for-hop identical to :meth:`route`: ``G_all``
        shares the ``X``/``Y`` id space with ``G'`` (terminals are
        appended after), the virtual ``source'`` fans out to ``Y_s`` at
        distance 0 exactly like the overlay's multi-source seeding, and
        the strict-improvement relaxation makes ``parent[t'']`` the first
        — i.e. minimum ``(dist, id)`` — settling member of ``X_t``, the
        very node the overlay query stops at.  The degraded-mode fallback
        uses this to serve Theorem-1 rebuild semantics off one cached
        ``G_all`` instead of reconstructing ``G_{s,t}`` per query.
        """
        if not self.network.has_node(source):
            raise UnknownNodeError(source)
        if not self.network.has_node(target):
            raise UnknownNodeError(target)
        if source == target:
            raise ValueError("source and target must differ")
        aux = self.all_pairs_graph()
        sink = aux.sink_ids[target]
        run = self._run(aux.graph, aux.source_ids[source], target=sink)
        if run.dist[sink] == math.inf:
            raise NoPathError(source, target)
        aux_path = reconstruct_path(run.parent, sink)
        path = _decode(aux.decode, aux_path, run.dist[sink])
        return RouteResult(path=path, stats=_stats(aux.sizes, run))

    # -- one-to-all / all pairs (Corollary 1) -----------------------------------

    def route_tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """Optimal semilightpaths from *source* to every reachable node.

        One full Dijkstra from ``source'`` over the cached ``G_all``; this
        is one iteration of Corollary 1.  A known node with no usable
        outgoing wavelengths yields an empty tree; an unknown node raises
        :class:`~repro.exceptions.UnknownNodeError` (matching :meth:`route`).
        """
        if not self.network.has_node(source):
            raise UnknownNodeError(source)
        aux = self.all_pairs_graph()
        return run_tree(aux, source, heap=self.heap, scratch=self._pool)[0]

    def route_all_pairs(self) -> AllPairsResult:
        """Corollary 1: optimal semilightpaths for all ordered pairs.

        One shared ``G_all`` build plus ``n`` shortest-path-tree runs:
        ``O(k²n² + kmn + kn²·log(kn))`` total.  ``paths`` iterates in
        source order (the network's node order), then tree order, and
        ``stats`` sums the ``n`` runs' work.
        """
        aux = self.all_pairs_graph()
        paths: dict[tuple[NodeId, NodeId], Semilightpath] = {}
        settled = relaxations = 0
        heap_totals: dict[str, int] = {}
        for source in self.network.nodes():
            tree, run = run_tree(aux, source, heap=self.heap, scratch=self._pool)
            for target, path in tree.items():
                paths[(source, target)] = path
            settled += run.settled
            relaxations += run.relaxations
            for key, value in run.heap_stats.items():
                heap_totals[key] = heap_totals.get(key, 0) + value
        return AllPairsResult(
            paths=paths,
            stats=QueryStats(
                sizes=aux.sizes,
                settled=settled,
                relaxations=relaxations,
                heap=heap_totals,
            ),
        )

    # -- kernel dispatch -----------------------------------------------------

    def _run(self, graph, sources, target=None, targets=None) -> DijkstraResult:
        return self._kernel(
            graph,
            sources,
            target=target,
            targets=targets,
            scratch=self._pool.get(graph.num_nodes),
        )


def run_tree(
    aux: AllPairsGraph,
    source: NodeId,
    heap: str | Callable[[], AddressableHeap] = "flat",
    scratch: ScratchBuffers | ScratchPool | None = None,
) -> tuple[dict[NodeId, Semilightpath], DijkstraResult]:
    """One Corollary 1 shortest-path tree over a shared ``G_all``.

    Module-level so a ``G_all`` attached from shared memory can run
    trees without a router instance.  The tree is fully decoded before
    returning, so reusable *scratch* is safe to pass.
    """
    run = resolve_kernel(heap)(aux.graph, aux.source_ids[source], scratch=scratch)
    tree: dict[NodeId, Semilightpath] = {}
    for target, sink_id in aux.sink_ids.items():
        if target == source or run.dist[sink_id] == math.inf:
            continue
        aux_path = reconstruct_path(run.parent, sink_id)
        tree[target] = _decode(aux.decode, aux_path, run.dist[sink_id])
    return tree, run


def _stats(sizes, run: DijkstraResult) -> QueryStats:
    return QueryStats(
        sizes=sizes,
        settled=run.settled,
        relaxations=run.relaxations,
        heap=dict(run.heap_stats),
    )


def _decode(decode: list[AuxNode], aux_path: list[int], total: float) -> Semilightpath:
    """Map an auxiliary-graph path back to a semilightpath.

    Every ``Y_u(λ) → X_v(λ)`` step is an ``E_org`` edge, i.e. one hop of the
    semilightpath on wavelength ``λ``; all other steps are virtual or
    conversion edges and contribute no hop.
    """
    hops: list[Hop] = []
    for i in range(len(aux_path) - 1):
        a = decode[aux_path[i]]
        b = decode[aux_path[i + 1]]
        if a.kind == KIND_OUT and b.kind == KIND_IN:
            # By construction E_org edges preserve the wavelength; a
            # mismatch means the auxiliary graph or parent array is
            # corrupt.  A real exception (not an assert) so the check
            # survives ``python -O``.
            if a.wavelength != b.wavelength:
                raise InvalidPathError(
                    f"corrupt E_org edge in auxiliary path: "
                    f"{a.label()} -> {b.label()} changes wavelength"
                )
            hops.append(Hop(tail=a.node, head=b.node, wavelength=a.wavelength))
    return Semilightpath(hops=tuple(hops), total_cost=total)
