"""Epoch-versioned memoization of ``G_all`` and per-source trees.

:class:`~repro.core.batch.BatchRouter` amortizes ``G_all`` over many
queries but is frozen to one network — its documented contract is "if
the network changes, build a new instance".  The serving layer needs the
opposite: a long-lived cache over a network whose residual state keeps
changing.  :class:`EpochRouterCache` closes that gap with a
monotonically increasing **epoch**:

* Every mutation notification bumps the epoch (cheap — no rebuild).
* Queries lazily reconcile: the first query after a bump rebuilds
  ``G_all`` against the network provider's *current* view and prunes
  cached trees.
* Two invalidation granularities:

  - :meth:`invalidate` — anything may have changed (channels released,
    topology edited, costs re-priced).  All cached trees are dropped.
  - :meth:`mark_channel_degraded` / :meth:`mark_path_reserved` —
    channels were *removed* from the residual network (a reservation).
    Removing resources can only raise optimal costs, so a cached tree
    whose paths avoid every degraded channel is still optimal and is
    **kept** across the epoch bump.  Only trees actually touching a
    degraded channel are dropped.

The degradation rule is the load-bearing optimization for on-line
provisioning: admissions far apart in the network leave most cached
trees valid.

Thread safety: all public methods take an internal lock; the cache may
be shared by the query engine's worker pool.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.auxiliary import KIND_SINK
from repro.core.routing import (
    LiangShenRouter,
    decode_warm_targets,
    decode_warm_tree,
    run_tree,
)
from repro.core.semilightpath import Semilightpath
from repro.exceptions import NoPathError
from repro.shortestpath.delta import DeltaOverlay
from repro.shortestpath.flat import ScratchPool, WarmRun

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork
    from repro.service.metrics import MetricsRegistry

__all__ = ["EpochRouterCache"]

NodeId = Hashable
#: A degraded channel: (tail, head, wavelength); wavelength None = whole link.
_DirtyKey = tuple[NodeId, NodeId, "int | None"]


class _WarmTree:
    """A cached tree's warm search state plus its not-yet-redecoded targets."""

    __slots__ = ("run", "dirty")

    def __init__(self, run: WarmRun) -> None:
        self.run = run
        self.dirty: set[NodeId] = set()


class EpochRouterCache:
    """Memoized Liang–Shen routing with explicit, epoch-versioned invalidation.

    Parameters
    ----------
    network:
        Either a :class:`~repro.core.network.WDMNetwork` (static serving)
        or a zero-argument callable returning the current network view
        (e.g. a provisioner's ``residual_network`` — called once per
        rebuild, never per query).
    heap:
        Dijkstra heap choice, forwarded to :class:`LiangShenRouter`.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, the cache maintains ``cache.hits`` / ``cache.misses`` /
        ``cache.rebuilds`` / ``cache.trees_kept`` / ``cache.trees_dropped``
        (plus, in incremental mode, ``cache.patches`` /
        ``cache.tree_patches``) counters and a ``cache.epoch`` gauge.
    incremental:
        Opt-in delta-epoch maintenance (default off — the legacy
        invalidation semantics are unchanged).  When on, fault and
        recovery notifications queue patch ops; the next refresh masks or
        unmasks the affected CSR slots of the cached ``G_all`` in place
        (:class:`~repro.shortestpath.delta.DeltaOverlay`) instead of
        rebuilding it, and cached trees are repaired via warm-started
        Dijkstra (:class:`~repro.shortestpath.flat.WarmRun`) rather than
        recomputed.  A full rebuild still happens when an event predates
        the current overlay (returns ``None`` from the delta layer) or on
        :meth:`invalidate`; it remains the correctness oracle.

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
        heap: str = "flat",
        metrics: "MetricsRegistry | None" = None,
        incremental: bool = False,
    ) -> None:
        self._factory: Callable[[], "WDMNetwork"] = (
            network if callable(network) else (lambda: network)
        )
        self._heap = heap
        self._metrics = metrics
        self._incremental = bool(incremental)
        self._lock = threading.RLock()
        self._epoch = 0
        self._built_epoch = -1  # nothing built yet
        self._network: "WDMNetwork | None" = None
        self._inner: LiangShenRouter | None = None
        self._aux = None
        self._scratch = ScratchPool()
        self._trees: dict[NodeId, dict[NodeId, Semilightpath]] = {}
        self._dirty: set[_DirtyKey] = set()
        self._full_dirty = True
        # Incremental mode: the delta overlay over the cached G_all, the
        # queued fault/recovery patch ops (applied lazily at refresh,
        # like the legacy dirty set), and per-source warm search state.
        # Invariant while incremental: _warm.keys() == _trees.keys().
        self._delta: DeltaOverlay | None = None
        self._patch_ops: list[tuple] = []
        self._warm: dict[NodeId, _WarmTree] = {}
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

    def invalidate(self) -> None:
        """Full invalidation: the network may have changed arbitrarily.

        Cheap — only bumps the epoch and marks everything dirty; the
        rebuild happens lazily on the next query.
        """
        with self._lock:
            self._full_dirty = True
            self._dirty.clear()
            self._patch_ops.clear()
            self._bump()

    def mark_channel_degraded(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel was removed (or its cost raised) on one link.

        With ``wavelength=None`` the whole link is marked.  Cached trees
        that avoid every degraded channel survive the epoch bump (see
        module docstring for why that is safe).  In incremental mode the
        event is queued as a patch op instead: the next refresh masks the
        affected CSR slots in place and repairs warm trees rather than
        rebuilding ``G_all``.
        """
        with self._lock:
            if self._incremental:
                if not self._full_dirty:
                    if wavelength is None:
                        self._patch_ops.append(("link_fail", tail, head))
                    else:
                        self._patch_ops.append(
                            ("channel_fail", tail, head, wavelength)
                        )
            elif not self._full_dirty:
                self._dirty.add((tail, head, wavelength))
            self._bump()

    def mark_channel_recovered(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A channel (or, with ``wavelength=None``, a link) came back.

        Recoveries add resources, which can improve arbitrary routes —
        without incremental mode this is a full invalidation (matching
        the fault injector's historical behavior).  In incremental mode
        the patched overlay unmasks the affected slots in place; only the
        decoded trees are dropped (distances may decrease, so warm search
        state cannot be repaired), while the ``O(k²n + km)`` overlay
        rebuild is still skipped.
        """
        with self._lock:
            if self._incremental:
                if not self._full_dirty:
                    if wavelength is None:
                        self._patch_ops.append(("link_recover", tail, head))
                    else:
                        self._patch_ops.append(
                            ("channel_recover", tail, head, wavelength)
                        )
            else:
                self._full_dirty = True
                self._dirty.clear()
            self._bump()

    def mark_converter_failed(self, node: NodeId) -> None:
        """The converter bank at *node* failed (continuity only).

        A converter failure only removes conversion edges, so in
        incremental mode it is an ordinary fail-only patch; otherwise it
        is a full invalidation (converter state is not channel-keyed).
        """
        with self._lock:
            if self._incremental:
                if not self._full_dirty:
                    self._patch_ops.append(("converter_fail", node))
            else:
                self._full_dirty = True
                self._dirty.clear()
            self._bump()

    def mark_converter_recovered(self, node: NodeId) -> None:
        """The converter bank at *node* recovered."""
        with self._lock:
            if self._incremental:
                if not self._full_dirty:
                    self._patch_ops.append(("converter_recover", node))
            else:
                self._full_dirty = True
                self._dirty.clear()
            self._bump()

    def mark_path_reserved(self, path: Semilightpath) -> None:
        """Mark every channel a just-reserved path occupies as degraded."""
        with self._lock:
            if self._incremental:
                if not self._full_dirty:
                    for hop in path.hops:
                        self._patch_ops.append(
                            ("channel_fail", hop.tail, hop.head, hop.wavelength)
                        )
            elif not self._full_dirty:
                for hop in path.hops:
                    self._dirty.add((hop.tail, hop.head, hop.wavelength))
            self._bump()

    # -- rebuild -------------------------------------------------------------

    def _tree_uses_dirty(self, tree: dict[NodeId, Semilightpath]) -> bool:
        for path in tree.values():
            for hop in path.hops:
                if (hop.tail, hop.head, hop.wavelength) in self._dirty:
                    return True
                if (hop.tail, hop.head, None) in self._dirty:
                    return True
        return False

    def _try_patch_locked(self) -> bool:
        """Apply the queued patch ops to the delta overlay.

        Returns True when every op was expressible as a patch; the
        overlay's CSR weights are then up to date with the current epoch.
        Fail-only batches additionally repair every warm tree (marking
        damaged targets for lazy re-decode); batches that restored any
        edge drop the decoded trees — distances can decrease, which warm
        state cannot express — but still keep the patched overlay.

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
            dropped = len(self._trees)
            self.trees_dropped += dropped
            if self._metrics is not None and dropped:
                self._metrics.counter("cache.trees_dropped").inc(dropped)
            self._trees.clear()
            self._warm.clear()
            return True
        if masked:
            decode = self._aux.decode
            pairs = delta.slot_pairs(masked)
            for warm in self._warm.values():
                for aid in warm.run.repair(pairs, delta.in_edges):
                    aux_node = decode[aid]
                    if aux_node.kind == KIND_SINK:
                        warm.dirty.add(aux_node.node)
        kept = len(self._trees)
        self.trees_kept += kept
        if self._metrics is not None and kept:
            self._metrics.counter("cache.trees_kept").inc(kept)
        return True

    def _refresh_locked(self) -> None:
        """Bring ``G_all`` (and the tree cache) up to the current epoch."""
        if self._built_epoch == self._epoch and self._aux is not None:
            return
        if (
            self._incremental
            and not self._full_dirty
            and self._delta is not None
            and self._aux is not None
        ):
            if self._try_patch_locked():
                # Patched in place: same aux build, new degraded view.
                # The snapshot is stale now but nothing on the query path
                # reads it — :meth:`network_view` refetches lazily, so the
                # fault-to-answer path never pays the O(network) copy.
                self._network = None
                self._dirty.clear()
                self._built_epoch = self._epoch
                self.patches += 1
                if self._metrics is not None:
                    self._metrics.counter("cache.patches").inc()
                return
            self._full_dirty = True  # half-patched overlay: rebuild all
        if self._full_dirty:
            self.trees_dropped += len(self._trees)
            if self._metrics is not None and self._trees:
                self._metrics.counter("cache.trees_dropped").inc(len(self._trees))
            self._trees.clear()
        elif self._dirty:
            survivors: dict[NodeId, dict[NodeId, Semilightpath]] = {}
            dropped = 0
            for source, tree in self._trees.items():
                if self._tree_uses_dirty(tree):
                    dropped += 1
                else:
                    survivors[source] = tree
            self.trees_kept += len(survivors)
            self.trees_dropped += dropped
            if self._metrics is not None:
                if survivors:
                    self._metrics.counter("cache.trees_kept").inc(len(survivors))
                if dropped:
                    self._metrics.counter("cache.trees_dropped").inc(dropped)
            self._trees = survivors
        self._network = self._factory()
        self._inner = LiangShenRouter(self._network, heap=self._heap)
        # The router caches G_all for its lifetime; one rebuild = one
        # construction, shared by every tree run until the next epoch.
        self._aux = self._inner.all_pairs_graph()
        if self._incremental:
            self._delta = DeltaOverlay(self._aux)
            self._warm.clear()
        self._patch_ops.clear()
        self._dirty.clear()
        self._full_dirty = False
        self._built_epoch = self._epoch
        self.rebuilds += 1
        if self._metrics is not None:
            self._metrics.counter("cache.rebuilds").inc()

    def _tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        self._refresh_locked()
        if self._incremental:
            return self._warm_tree_locked(source)
        tree = self._trees.get(source)
        if tree is None:
            self.misses += 1
            if self._metrics is not None:
                self._metrics.counter("cache.misses").inc()
            if self._inner is None:
                # _refresh_locked always installs a router; a None here means
                # _tree ran outside the lock/refresh protocol.  A real
                # exception so the invariant holds under ``python -O``.
                raise ValueError("epoch cache queried before refresh built a router")
            tree, run = run_tree(
                self._aux, source, heap=self._heap, scratch=self._scratch
            )
            self._trees[source] = tree
            if self._metrics is not None:
                self._metrics.observe_query(
                    _tree_stats(self._aux, run), prefix="cache.tree_build"
                )
        else:
            self.hits += 1
            if self._metrics is not None:
                self._metrics.counter("cache.hits").inc()
        return tree

    def _warm_tree_locked(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """Incremental-mode tree: warm-run backed, repaired across deltas.

        A cached tree whose warm run was repaired re-runs the search —
        which only re-settles the damaged region — and re-decodes only
        the targets whose sink was damaged; everything else is served
        as-is.  A miss starts a fresh warm run to exhaustion and keeps
        it for future queries and repairs.
        """
        warm = self._warm.get(source)
        if warm is not None:
            tree = self._trees[source]
            if warm.dirty:
                warm.run.run()
                decode_warm_targets(self._aux, source, warm.run, warm.dirty, tree)
                warm.dirty.clear()
                self.tree_patches += 1
                if self._metrics is not None:
                    self._metrics.counter("cache.tree_patches").inc()
            self.hits += 1
            if self._metrics is not None:
                self._metrics.counter("cache.hits").inc()
            return tree
        self.misses += 1
        if self._metrics is not None:
            self._metrics.counter("cache.misses").inc()
        run = WarmRun(self._aux.graph, self._aux.source_ids[source])
        run.run()
        tree = decode_warm_tree(self._aux, source, run)
        self._trees[source] = tree
        self._warm[source] = _WarmTree(run)
        if self._metrics is not None:
            self._metrics.observe_query(
                _tree_stats(self._aux, run.result()), prefix="cache.tree_build"
            )
        return tree

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
            path = self._tree(source).get(target)
            epoch = self._built_epoch
        if path is None:
            raise NoPathError(source, target)
        return path, epoch

    def route_batch(
        self, source: NodeId, targets: "list[NodeId]"
    ) -> list[tuple["Semilightpath | None", int]]:
        """Answer a same-source batch under **one** lock acquisition.

        The engine's coalesced dispatch uses this to serve a claimed
        batch with one refresh check and one tree fetch instead of
        re-entering the lock (and re-walking the refresh logic) per
        request.  Returns ``(path, built_epoch)`` per target in order,
        with ``None`` for unreachable targets — the caller maps those to
        :class:`~repro.exceptions.NoPathError` per request.  Callers must
        filter out ``target == source`` entries first (they are a request
        error, not an unreachability answer).
        """
        with self._lock:
            tree = self._tree(source)
            epoch = self._built_epoch
            return [(tree.get(target), epoch) for target in targets]

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
                self._fallback_router = LiangShenRouter(network, heap=self._heap)
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
            path = self._tree(source).get(target)
        return math.inf if path is None else path.total_cost

    def tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """A copy of the full shortest-path tree from *source*."""
        with self._lock:
            return dict(self._tree(source))

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
