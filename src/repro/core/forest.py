"""One source's shortest-path tree over ``G_all``, searched and decoded on demand.

Corollary 1 answers every target of a source from one shortest-path tree
over ``G_all``.  :class:`LazyForest` is that tree as the serving layers
keep it, with both of its costs deferred until a target is asked for:

* **search** — a warm forest holds a
  :class:`~repro.shortestpath.flat.WarmRun` seeded at ``source'``.  A
  lookup resumes it only until the target's sink ``t''`` settles — the
  early stop Theorem 1's ``s' → t''`` query makes — so the first target
  of a source costs one partial search and every later one continues
  the same run instead of starting over;
* **decode** — each target's path is decoded on first request and
  memoized.  q lookups on one source cost at most one search plus q
  decodes — never n — and repeated targets are dictionary hits.

After a fail-only patch of ``G_all``, :meth:`LazyForest.repair` rewinds
only the region the masked edges damaged and drops the paths whose sink
lies in it; the next lookup resumes from the settled boundary.  Repaired
trees stay hop-identical to a cold run on the patched graph (the
``(dist, node)`` argument in :class:`~repro.shortestpath.flat.WarmRun`).
Server workers and :class:`~repro.service.cache.EpochRouterCache` keep
their trees this way.

:func:`run_forest` with ``heap=`` builds the other kind of forest: one
uninterrupted kernel-table run to exhaustion, decoded on demand but
never resumed or repaired.  :class:`~repro.core.batch.BatchRouter` keeps
these; it is the oracle the served answers are checked against, so it
must not share the stop-and-resume code it checks.

Lifetime contract (the "batched-decoding" contract)
---------------------------------------------------
Because decoding is deferred, the forest must outlive its search
arrays.  Both kinds therefore search on **private** buffers — never a
router's shared scratch — so a forest and every path it decodes stay
valid indefinitely: after the next query, the next epoch, or the
originating router being dropped.  This is the difference from the eager
:func:`~repro.core.routing.run_tree`, which may borrow reusable scratch
precisely because it finishes all decoding before returning.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable

from repro.core.auxiliary import KIND_SINK, AllPairsGraph
from repro.core.routing import _decode
from repro.core.semilightpath import Semilightpath
from repro.shortestpath import resolve_kernel
from repro.shortestpath.dijkstra import DijkstraResult
from repro.shortestpath.flat import WarmRun
from repro.shortestpath.paths import reconstruct_path

__all__ = ["LazyForest", "run_forest"]

NodeId = Hashable

_MISSING = object()


class LazyForest:
    """One source's tree over ``G_all``: a search plus its decoded paths.

    Built by :func:`run_forest`.  *run* is the search: ``None`` starts a
    :class:`WarmRun` from ``source'``; a finished kernel run is used as
    it is and never resumed.  Paths are hop-identical to
    :func:`~repro.core.routing.run_tree`'s either way — both decode the
    same parent forest, this one later.

    Not thread-safe; owned by one worker or cache under its lock.
    """

    __slots__ = ("aux", "source", "run", "_warm", "_paths")

    def __init__(
        self,
        aux: AllPairsGraph,
        source: NodeId,
        run: WarmRun | DijkstraResult | None = None,
    ) -> None:
        self.aux = aux
        self.source = source
        if run is None:
            run = WarmRun(aux.graph, aux.source_ids[source])
        self.run = run
        self._warm = run if isinstance(run, WarmRun) else None
        self._paths: dict[NodeId, Semilightpath | None] = {}

    @property
    def decoded_targets(self) -> int:
        """How many targets have been decoded so far (memoization probe)."""
        return len(self._paths)

    def _sink(self, target: NodeId) -> int:
        """*target*'s sink id, its distance final: a warm search resumes
        until that sink settles (a no-op once it has)."""
        sink = self.aux.sink_ids[target]
        if self._warm is not None:
            self._warm.run(target=sink)
        return sink

    def path_to(self, target: NodeId) -> Semilightpath | None:
        """The optimal semilightpath to *target*, ``None`` if unreachable.

        The source itself maps to ``None`` (a tree has no path to its own
        root — matching its absence from :func:`run_tree` trees); unknown
        targets raise ``KeyError`` like any tree lookup.
        """
        cached = self._paths.get(target, _MISSING)
        if cached is not _MISSING:
            return cached
        path: Semilightpath | None = None
        if target != self.source:
            sink = self._sink(target)
            dist = self.run.dist[sink]
            if dist != math.inf:
                path = _decode(
                    self.aux.decode, reconstruct_path(self.run.parent, sink), dist
                )
        self._paths[target] = path
        return path

    def cost(self, target: NodeId) -> float:
        """Optimal cost to *target* straight off the distance array.

        No decode happens — ``dist[sink]`` already is the Eq. (1) total —
        so cost probes never decode a path.
        """
        if target == self.source:
            return 0.0
        return self.run.dist[self._sink(target)]

    def materialize(self) -> dict[NodeId, Semilightpath]:
        """Search to exhaustion and decode every reachable target; same
        shape as :func:`run_tree`.

        Already-decoded paths are reused, so materializing after a few
        lookups costs only the remaining targets.
        """
        if self._warm is not None:
            self._warm.run()
        tree: dict[NodeId, Semilightpath] = {}
        for target in self.aux.sink_ids:
            path = self.path_to(target)
            if path is not None:
                tree[target] = path
        return tree

    def repair(
        self,
        pairs: Iterable[tuple[int, int]],
        in_edges: Callable[[int], Iterable[tuple[int, int]]],
    ) -> bool:
        """Repair a warm tree after the edges *pairs* were masked to ``inf``.

        Delegates to :meth:`WarmRun.repair` (same arguments) and drops
        the memoized path of every target whose sink the repair rewound,
        so the next lookup resumes the search and decodes it afresh.
        Works on a run stopped at any target.  Returns True when
        anything was rewound.
        """
        damaged = self._warm.repair(pairs, in_edges)
        decode = self.aux.decode
        for aid in damaged:
            node = decode[aid]
            if node.kind == KIND_SINK:
                self._paths.pop(node.node, None)
        return bool(damaged)


def run_forest(
    aux: AllPairsGraph,
    source: NodeId,
    target: NodeId | None = None,
    *,
    heap: str | None = None,
) -> LazyForest:
    """One Corollary 1 tree from *source*, searched until *target* settles.

    By default the tree is warm: its :class:`WarmRun` stops once
    *target*'s sink settles (without a target it runs to exhaustion),
    and later lookups resume it.  With *heap* naming a kernel-table
    kernel the tree is instead one uninterrupted run of that kernel to
    exhaustion (*target* is then irrelevant) — the oracle trees
    :class:`~repro.core.batch.BatchRouter` keeps.

    Either kind runs on private buffers (see the module docstring's
    lifetime contract), so callers may cache the forest across queries
    and epochs.
    """
    if heap is not None:
        run = resolve_kernel(heap)(aux.graph, aux.source_ids[source], scratch=None)
        return LazyForest(aux, source, run)
    forest = LazyForest(aux, source)
    if target is None:
        forest.run.run()
    elif target != source:
        forest._sink(target)
    return forest
