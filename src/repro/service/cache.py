"""Epoch-versioned memoization of ``G_all`` and per-source trees.

:class:`~repro.core.batch.BatchRouter` amortizes ``G_all`` over many
queries but is frozen to one network — its documented contract is "if
the network changes, build a new instance".  The serving layer needs the
opposite: a long-lived cache over a network whose residual state keeps
changing.  :class:`EpochRouterCache` closes that gap with a
monotonically increasing **epoch**:

* Every mutation notification bumps the epoch (cheap — no rebuild).
* Queries lazily reconcile: the first query after a bump brings the
  cached ``G_all`` and trees up to the current epoch.
* Two kinds of notification:

  - :meth:`invalidate` — anything may have changed (channels released,
    topology edited, costs re-priced).  The next query rebuilds ``G_all``
    from the network provider and drops every cached tree.
  - the ``mark_*`` methods — one named resource (a channel, a link, a
    converter bank, the channels of a reserved path) was removed or came
    back.  The next query patches the cached ``G_all`` in place
    (:class:`~repro.shortestpath.delta.DeltaOverlay` masks or unmasks its
    CSR slots) instead of rebuilding it.  Removals repair the cached
    trees through their warm search state
    (:meth:`~repro.core.forest.LazyForest.repair`), re-settling only the
    damaged region; recoveries can lower distances, which warm state
    cannot express, so they drop the trees but keep the patched overlay.

Each cached tree is a warm :class:`~repro.core.forest.LazyForest`, the
same type the server workers keep: a lookup searches only until the
target's sink settles and decodes only that target, and the next lookup
on the source resumes the same run.

A resource the overlay cannot express — one that was already dark when
``G_all`` was built and now recovers — falls back to the full rebuild.
Either way every answer is hop-identical to a cold
:class:`~repro.core.routing.LiangShenRouter` on the provider's current
view.

Thread safety: all public methods take an internal lock; the cache may
be shared by every thread calling one routing service.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.auxiliary import build_all_pairs_graph
from repro.core.forest import LazyForest, run_forest
from repro.core.routing import LiangShenRouter
from repro.core.semilightpath import Semilightpath
from repro.exceptions import NoPathError
from repro.shortestpath.delta import DeltaOverlay

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork
    from repro.service.metrics import MetricsRegistry

__all__ = ["EpochRouterCache"]

NodeId = Hashable


class EpochRouterCache:
    """Memoized Liang–Shen routing with explicit, epoch-versioned invalidation.

    Parameters
    ----------
    network:
        Either a :class:`~repro.core.network.WDMNetwork` (static serving)
        or a zero-argument callable returning the current network view
        (e.g. a provisioner's ``residual_network`` — called once per
        rebuild, never per query).
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, the cache maintains ``cache.hits`` / ``cache.misses`` /
        ``cache.rebuilds`` / ``cache.patches`` / ``cache.tree_patches`` /
        ``cache.trees_kept`` / ``cache.trees_dropped`` counters and a
        ``cache.epoch`` gauge.

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> cache = EpochRouterCache(paper_figure1_network())
    >>> cache.route(1, 7).total_cost
    2.0
    >>> cache.invalidate()
    >>> cache.epoch
    1
    """

    def __init__(
        self,
        network: "WDMNetwork | Callable[[], WDMNetwork]",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._factory: Callable[[], "WDMNetwork"] = (
            network if callable(network) else (lambda: network)
        )
        self._metrics = metrics
        self._lock = threading.RLock()
        self._epoch = 0
        self._built_epoch = -1  # nothing built yet
        self._network: "WDMNetwork | None" = None
        self._aux = None
        self._delta: DeltaOverlay | None = None
        self._full_dirty = True
        # Patch ops queued by the mark_* notifications, applied to the
        # delta overlay lazily at the next refresh.
        self._patch_ops: list[tuple] = []
        self._trees: dict[NodeId, LazyForest] = {}
        # Counters mirrored into the registry (when one is attached) so
        # they are inspectable even without metrics.
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.trees_kept = 0
        self.trees_dropped = 0
        self.patches = 0
        self.tree_patches = 0
        # Degraded-mode fallback: its own router + snapshot, cached per
        # epoch under a separate lock so it never contends with (or
        # deadlocks against) the main cache lock.
        self._fallback_lock = threading.Lock()
        self._fallback_router: LiangShenRouter | None = None
        self._fallback_network: "WDMNetwork | None" = None
        self._fallback_epoch = -1

    # -- epoch bookkeeping ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current network epoch (bumped by every invalidation)."""
        return self._epoch

    @property
    def built_epoch(self) -> int:
        """Epoch the cached ``G_all`` was built at (-1 before first build)."""
        return self._built_epoch

    @property
    def cached_sources(self) -> int:
        """Number of sources with a cached shortest-path tree."""
        with self._lock:
            return len(self._trees)

    def _bump(self) -> None:
        self._epoch += 1
        if self._metrics is not None:
            self._metrics.gauge("cache.epoch").set(self._epoch)

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None and amount:
            self._metrics.counter(f"cache.{name}").inc(amount)

    def invalidate(self) -> None:
        """Full invalidation: the network may have changed arbitrarily.

        This is also the notification for a cost change.  Cheap — only
        bumps the epoch; the rebuild happens lazily on the next query.
        """
        with self._lock:
            self._full_dirty = True
            self._patch_ops.clear()
            self._bump()

    def _queue(self, *ops: tuple) -> None:
        """Queue patch ops for the next refresh and bump the epoch once.

        While a full rebuild is pending the ops are dropped: the rebuild
        reads the provider's current view, which already reflects them.
        """
        with self._lock:
            if not self._full_dirty:
                self._patch_ops.extend(ops)
            self._bump()

    def mark_channel_degraded(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel was removed from one link.

        With ``wavelength=None`` every channel of the link is removed.
        The next refresh masks the affected CSR slots in place and
        repairs the cached trees.  A cost change is not a removal: send
        it through :meth:`invalidate`.
        """
        if wavelength is None:
            self._queue(("link_fail", tail, head))
        else:
            self._queue(("channel_fail", tail, head, wavelength))

    def mark_channel_recovered(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel (or, with ``wavelength=None``, a link) came back.

        The next refresh unmasks the affected slots in place.  Recoveries
        can improve arbitrary routes, so the decoded trees are dropped
        (distances may decrease, which warm search state cannot repair),
        while the ``O(k²n + km)`` rebuild of ``G_all`` is still skipped.
        """
        if wavelength is None:
            self._queue(("link_recover", tail, head))
        else:
            self._queue(("channel_recover", tail, head, wavelength))

    def mark_converter_failed(self, node: NodeId) -> None:
        """The converter bank at *node* failed (continuity only).

        Only conversion edges disappear, so this is an ordinary
        removal patch.
        """
        self._queue(("converter_fail", node))

    def mark_converter_recovered(self, node: NodeId) -> None:
        """The converter bank at *node* recovered."""
        self._queue(("converter_recover", node))

    # -- refresh -------------------------------------------------------------

    def _try_patch_locked(self) -> bool:
        """Apply the queued patch ops to the delta overlay.

        Returns True when every op was expressible as a patch; the
        overlay's CSR weights are then up to date with the current epoch.
        Fail-only batches additionally repair every warm tree (damaged
        targets are searched and decoded again on their next lookup);
        batches that restored any edge drop the trees — distances can
        decrease, which warm state cannot express — but still keep the
        patched overlay.

        On False the caller must full-rebuild: some op predates this
        overlay, and earlier ops in the batch may already have mutated
        weights, so the half-patched overlay is only good for discarding.
        """
        delta = self._delta
        ops, self._patch_ops = self._patch_ops, []
        masked: list[int] = []
        restored = False
        for op in ops:
            kind = op[0]
            if kind == "channel_fail":
                changed = delta.fail_channel(op[1], op[2], op[3])
            elif kind == "link_fail":
                changed = delta.fail_link(op[1], op[2])
            elif kind == "converter_fail":
                changed = delta.fail_converter(op[1])
            elif kind == "channel_recover":
                changed = delta.recover_channel(op[1], op[2], op[3])
            elif kind == "link_recover":
                changed = delta.recover_link(op[1], op[2])
            else:
                changed = delta.recover_converter(op[1])
            if changed is None:
                return False
            if kind.endswith("_fail"):
                masked.extend(changed)
            elif changed:
                restored = True
        if restored:
            self._drop_trees()
            return True
        if masked:
            pairs = delta.slot_pairs(masked)
            for forest in self._trees.values():
                if forest.repair(pairs, delta.in_edges):
                    self.tree_patches += 1
                    self._count("tree_patches")
        self.trees_kept += len(self._trees)
        self._count("trees_kept", len(self._trees))
        return True

    def _drop_trees(self) -> None:
        self.trees_dropped += len(self._trees)
        self._count("trees_dropped", len(self._trees))
        self._trees.clear()

    def _refresh_locked(self) -> None:
        """Bring ``G_all`` (and the tree cache) up to the current epoch."""
        if self._built_epoch == self._epoch:
            return
        if not self._full_dirty:
            if self._try_patch_locked():
                # Patched in place: same aux build, new degraded view.
                # The snapshot is stale now but nothing on the query path
                # reads it — :meth:`network_view` refetches lazily, so the
                # fault-to-answer path never pays the O(network) copy.
                self._network = None
                self._built_epoch = self._epoch
                self.patches += 1
                self._count("patches")
                return
            self._full_dirty = True  # half-patched overlay: rebuild all
        self._drop_trees()
        self._network = self._factory()
        self._aux = build_all_pairs_graph(self._network)
        self._delta = DeltaOverlay(self._aux)
        self._patch_ops.clear()
        self._full_dirty = False
        self._built_epoch = self._epoch
        self.rebuilds += 1
        self._count("rebuilds")

    def _forest(self, source: NodeId, target: NodeId | None) -> LazyForest:
        """The current tree from *source* (lock held).

        A cached tree — repaired in place by any removal patch since —
        is served as it is; its lookups resume the search where it
        stopped.  A miss starts a warm run and searches it until
        *target* settles (to exhaustion for ``None`` or an unknown
        target), which is the work the ``cache.tree_build`` stats record.
        """
        self._refresh_locked()
        forest = self._trees.get(source)
        if forest is not None:
            self.hits += 1
            self._count("hits")
            return forest
        self.misses += 1
        self._count("misses")
        known = target in self._aux.sink_ids
        forest = run_forest(self._aux, source, target if known else None)
        self._trees[source] = forest
        if self._metrics is not None:
            self._metrics.observe_query(
                _tree_stats(self._aux, forest.run.result()), prefix="cache.tree_build"
            )
        return forest

    def _path(self, forest: LazyForest, target: NodeId) -> Semilightpath | None:
        """*forest*'s path to *target*; ``None`` for an unknown target too."""
        if target not in self._aux.sink_ids:
            return None
        return forest.path_to(target)

    # -- queries -------------------------------------------------------------

    def route(self, source: NodeId, target: NodeId) -> Semilightpath:
        """Optimal semilightpath at the current epoch.

        Raises :class:`~repro.exceptions.NoPathError` when unreachable.
        """
        return self.route_with_epoch(source, target)[0]

    def route_with_epoch(
        self, source: NodeId, target: NodeId
    ) -> tuple[Semilightpath, int]:
        """Like :meth:`route`, also returning the epoch the answer was
        computed on.

        The epoch is read under the same lock that served the tree, so it
        is exactly the ``built_epoch`` of the ``G_all`` behind the answer
        — the serving layer's staleness flag and the chaos soak's
        certificate check both key on it.
        """
        if source == target:
            raise ValueError("source and target must differ")
        with self._lock:
            path = self._path(self._forest(source, target), target)
            epoch = self._built_epoch
        if path is None:
            raise NoPathError(source, target)
        return path, epoch

    def route_rebuild(
        self, source: NodeId, target: NodeId
    ) -> tuple[Semilightpath, "WDMNetwork"]:
        """Degraded-mode fallback: fresh-snapshot routing, no shared state.

        Runs on a *fresh* network snapshot under its own lock — never the
        cache lock, never the shared ``G'``/``G_all`` — so it stays
        available while the epoch cache is mid-invalidation or churning
        through a fault storm.  The fallback router (and its cached
        ``G_all``) is reused across calls at the same epoch instead of
        reconstructing ``G_{s,t}`` per query; a stale epoch rebuilds it
        from a new snapshot.  Answers are hop-for-hop what the Theorem-1
        per-pair construction returns (see
        :meth:`~repro.core.routing.LiangShenRouter.route_via_all_pairs`).
        Returns the path together with the snapshot it was computed on
        (the caller's certificate check needs exactly that network).
        """
        epoch = self._epoch
        with self._fallback_lock:
            if self._fallback_router is None or self._fallback_epoch != epoch:
                network = self._factory()
                self._fallback_router = LiangShenRouter(network)
                self._fallback_network = network
                self._fallback_epoch = epoch
            router = self._fallback_router
            network = self._fallback_network
            return router.route_via_all_pairs(source, target).path, network

    def cost(self, source: NodeId, target: NodeId) -> float:
        """Optimal cost at the current epoch, ``math.inf`` if unreachable."""
        if source == target:
            return 0.0
        with self._lock:
            forest = self._forest(source, target)
            known = target in self._aux.sink_ids
            return forest.cost(target) if known else math.inf

    def tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """A copy of the full shortest-path tree from *source*."""
        with self._lock:
            return self._forest(source, None).materialize()

    def network_view(self) -> "WDMNetwork":
        """The network snapshot matching the current cache entries.

        Patched refreshes drop the snapshot instead of eagerly re-copying
        the provider's network; it is refetched here on demand.
        """
        with self._lock:
            self._refresh_locked()
            if self._network is None:
                self._network = self._factory()
            return self._network

    def counters(self) -> dict[str, int]:
        """Plain-dict view of the cache counters (for tests and reports)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "rebuilds": self.rebuilds,
                "patches": self.patches,
                "tree_patches": self.tree_patches,
                "trees_kept": self.trees_kept,
                "trees_dropped": self.trees_dropped,
                "epoch": self._epoch,
            }


def _tree_stats(aux, run):
    from repro.core.instrumentation import QueryStats

    return QueryStats(
        sizes=aux.sizes,
        settled=run.settled,
        relaxations=run.relaxations,
        heap=dict(run.heap_stats),
    )
