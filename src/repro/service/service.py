"""The routing-service facade: cache + engine + metrics in one object.

:class:`RoutingService` is the serving layer's front door.  It owns an
:class:`~repro.service.cache.EpochRouterCache` (epoch-versioned ``G_all``
and per-source trees), a :class:`~repro.service.engine.QueryEngine`
(worker pool, bounded queue, deadlines, coalescing) and a
:class:`~repro.service.metrics.MetricsRegistry` wired through both.

Static serving::

    service = RoutingService(network)
    path = service.route(s, t)

On-line provisioning (the paper's motivating workload) hangs a service
off a provisioner so admissions reuse cached trees::

    prov = SemilightpathProvisioner(network)
    prov.attach_service(workers=4)
    conn = prov.establish(s, t)       # routed through the cache

After each admission the provisioner notifies the service which channels
were reserved; the cache masks them in its ``G_all`` and repairs the
cached trees in place instead of rebuilding.  Releases invalidate fully
— freed channels can improve arbitrary routes.

Degraded-mode serving
---------------------
:meth:`RoutingService.route_resilient` answers through a three-step
degrade chain and reports *how* it answered in a :class:`RouteOutcome`:

1. **fresh** — the normal engine path (retry/backoff and circuit breaker
   included when configured);
2. **stale** — when the backend fails transiently or the breaker is
   open, the last-good answer for the pair is served with an explicit
   staleness flag (``outcome.stale``) and counted under
   ``service.stale_served``; a background revalidation is submitted so
   the cache re-warms as soon as the backend heals;
3. **rebuild** — with no last-good answer, the query falls back to a
   shared-state-free Theorem-1 rebuild on a fresh snapshot
   (:meth:`~repro.service.cache.EpochRouterCache.route_rebuild`), which
   stays available while the shared ``G'``/``G_all`` is
   mid-invalidation.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.semilightpath import Semilightpath
from repro.exceptions import (
    CircuitOpenError,
    NoPathError,
    ServiceClosedError,
    ServiceOverloadError,
    TransientBackendError,
)
from repro.service.cache import EpochRouterCache
from repro.service.engine import QueryEngine, QueryFuture
from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork
    from repro.faults.resilience import CircuitBreaker, RetryPolicy

__all__ = ["RouteOutcome", "RoutingService"]

NodeId = Hashable


@dataclass(frozen=True)
class RouteOutcome:
    """One :meth:`RoutingService.route_resilient` answer, with provenance.

    ``mode`` is ``"fresh"`` / ``"stale"`` / ``"rebuild"``; ``epoch`` is
    the cache epoch the path was computed on (``-1`` for rebuild answers,
    which carry their own ``snapshot`` network instead).
    """

    path: Semilightpath
    epoch: int
    mode: str = "fresh"
    snapshot: "WDMNetwork | None" = None

    @property
    def stale(self) -> bool:
        """Explicit staleness flag: the answer predates the current epoch."""
        return self.mode == "stale"


class RoutingService:
    """Request-driven optimal semilightpath routing with caching and metrics.

    Parameters
    ----------
    network:
        A static :class:`~repro.core.network.WDMNetwork`, or a callable
        returning the current network view (called once per cache
        rebuild).
    workers:
        Worker threads for the query engine; ``0`` serves synchronously
        on the calling thread.
    queue_limit:
        Pending-request bound; excess submissions raise
        :class:`~repro.exceptions.ServiceOverloadError`.
    metrics:
        Bring-your-own registry; a private one is created otherwise.
    retry:
        Optional :class:`~repro.faults.resilience.RetryPolicy` for
        transient backend failures, forwarded to the engine.
    breaker:
        Optional :class:`~repro.faults.resilience.CircuitBreaker` around
        the routing backend; its state is published as the
        ``engine.breaker_state`` gauge (0 closed, 1 half-open, 2 open).
    last_good_limit:
        Bound on the last-good answer store (LRU-evicted).

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> with RoutingService(paper_figure1_network(), workers=0) as service:
    ...     service.route(1, 7).total_cost
    2.0
    """

    def __init__(
        self,
        network: "WDMNetwork | Callable[[], WDMNetwork]",
        workers: int = 4,
        queue_limit: int = 256,
        metrics: MetricsRegistry | None = None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        last_good_limit: int = 65536,
    ) -> None:
        if last_good_limit < 1:
            raise ValueError("last_good_limit must be positive")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = EpochRouterCache(network, metrics=self.metrics)
        self.engine = QueryEngine(
            self.cache,
            workers=workers,
            queue_limit=queue_limit,
            metrics=self.metrics,
            retry=retry,
            breaker=breaker,
        )
        self._last_good_limit = last_good_limit
        self._last_good: OrderedDict[
            tuple[NodeId, NodeId], tuple[Semilightpath, int]
        ] = OrderedDict()
        self._last_good_lock = threading.Lock()
        if breaker is not None:
            states = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
            self.metrics.register_callback(
                "engine.breaker_state", lambda: states.get(breaker.state, -1.0)
            )

    # -- queries -------------------------------------------------------------

    def route(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> Semilightpath:
        """Optimal semilightpath at the current epoch.

        Raises :class:`~repro.exceptions.NoPathError` when unreachable,
        :class:`~repro.exceptions.ServiceOverloadError` on a full queue,
        :class:`~repro.exceptions.DeadlineExceeded` when *timeout*
        elapses before an answer arrives.
        """
        start = time.monotonic()
        try:
            path, epoch = self.engine.route_with_epoch(
                source, target, timeout=timeout
            )
            self._remember(source, target, path, epoch)
            return path
        finally:
            self.metrics.histogram("service.admission_ms").observe(
                (time.monotonic() - start) * 1e3
            )

    def route_resilient(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> RouteOutcome:
        """Degraded-mode routing: fresh, else stale, else rebuild.

        Semantic outcomes (:class:`~repro.exceptions.NoPathError`,
        deadline/overload rejections) propagate unchanged — degradation
        only engages when the *backend* fails
        (:class:`~repro.exceptions.TransientBackendError` surviving the
        engine's retries, or :class:`~repro.exceptions.CircuitOpenError`
        from an open breaker).  See the module docstring for the chain.
        """
        start = time.monotonic()
        try:
            path, epoch = self.engine.route_with_epoch(
                source, target, timeout=timeout
            )
            self._remember(source, target, path, epoch)
            return RouteOutcome(path=path, epoch=epoch, mode="fresh")
        except (TransientBackendError, CircuitOpenError):
            outcome = self._degraded(source, target)
            if outcome is None:
                raise
            return outcome
        finally:
            self.metrics.histogram("service.admission_ms").observe(
                (time.monotonic() - start) * 1e3
            )

    def _degraded(self, source: NodeId, target: NodeId) -> RouteOutcome | None:
        """Stale-while-revalidate, then shared-state-free rebuild."""
        with self._last_good_lock:
            entry = self._last_good.get((source, target))
        if entry is not None:
            path, epoch = entry
            self.metrics.counter("service.stale_served").inc()
            self._revalidate(source, target)
            return RouteOutcome(path=path, epoch=epoch, mode="stale")
        try:
            path, snapshot = self.cache.route_rebuild(source, target)
        except TransientBackendError:
            return None  # rebuild hit the same fault; caller re-raises fresh error
        self.metrics.counter("service.rebuild_fallback").inc()
        return RouteOutcome(path=path, epoch=-1, mode="rebuild", snapshot=snapshot)

    def _revalidate(self, source: NodeId, target: NodeId) -> None:
        """Fire-and-forget refresh behind a stale answer (workers only)."""
        if self.engine.num_workers == 0:
            return
        try:
            self.engine.submit(source, target)
            self.metrics.counter("service.revalidations").inc()
        except (ServiceOverloadError, ServiceClosedError):
            pass  # shedding revalidation load is fine; staleness was flagged

    def _remember(
        self, source: NodeId, target: NodeId, path: Semilightpath, epoch: int
    ) -> None:
        with self._last_good_lock:
            store = self._last_good
            store[(source, target)] = (path, epoch)
            store.move_to_end((source, target))
            while len(store) > self._last_good_limit:
                store.popitem(last=False)
            size = len(store)
        self.metrics.gauge("service.last_good_size").set(size)

    def try_route(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> Semilightpath | None:
        """Like :meth:`route` but returns ``None`` when unreachable."""
        try:
            return self.route(source, target, timeout=timeout)
        except NoPathError:
            return None

    def submit(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> QueryFuture:
        """Asynchronous submission; see :meth:`QueryEngine.submit`."""
        return self.engine.submit(source, target, timeout=timeout)

    def cost(self, source: NodeId, target: NodeId) -> float:
        """Optimal cost at the current epoch (``inf`` when unreachable)."""
        if source == target:
            return 0.0
        path = self.try_route(source, target)
        return math.inf if path is None else path.total_cost

    def route_tree(self, source: NodeId) -> dict[NodeId, Semilightpath]:
        """Optimal semilightpaths from *source* to every reachable node.

        The Corollary 1 one-to-all tree at the current epoch, served from
        the same cached trees :meth:`route` reads — one call warms the
        cache for every pair out of *source*.  Unreachable nodes are
        simply absent (no :class:`~repro.exceptions.NoPathError`; a
        one-to-all answer is partial by design).  Every returned path is
        remembered for stale-serving, so a tree call also refreshes the
        degraded-mode safety net.
        """
        start = time.monotonic()
        try:
            tree = self.cache.tree(source)
            epoch = self.cache.epoch
            for target, path in tree.items():
                self._remember(source, target, path, epoch)
            return tree
        finally:
            self.metrics.histogram("service.admission_ms").observe(
                (time.monotonic() - start) * 1e3
            )

    # -- invalidation hooks --------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current cache epoch."""
        return self.cache.epoch

    def invalidate(self) -> None:
        """Full invalidation — the network changed in an unknown way."""
        self.cache.invalidate()

    def notify_reserved(self, path: Semilightpath) -> None:
        """Channels along *path* were reserved (resources removed)."""
        self.cache.mark_path_reserved(path)

    def notify_released(self, path: Semilightpath) -> None:
        """Channels along *path* were released (resources added back)."""
        del path  # which channels improved does not help: invalidate fully
        self.cache.invalidate()

    def notify_link_degraded(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A link (or one of its channels) was removed from service.

        A cost change is not a removal: send it through :meth:`invalidate`.
        """
        self.cache.mark_channel_degraded(tail, head, wavelength)

    def notify_link_recovered(
        self, tail: NodeId, head: NodeId, wavelength: int | None = None
    ) -> None:
        """A link (or one of its channels) came back into service."""
        self.cache.mark_channel_recovered(tail, head, wavelength)

    def notify_converter_degraded(self, node: NodeId) -> None:
        """The converter bank at *node* failed (continuity only)."""
        self.cache.mark_converter_failed(node)

    def notify_converter_recovered(self, node: NodeId) -> None:
        """The converter bank at *node* recovered."""
        self.cache.mark_converter_recovered(node)

    # -- reporting / lifecycle -----------------------------------------------

    def metrics_snapshot(self) -> dict[str, object]:
        """All service metrics as a flat dict."""
        return self.metrics.snapshot()

    def render_metrics(self) -> str:
        """Human-readable metrics report."""
        return self.metrics.render()

    def close(self) -> None:
        """Shut down the worker pool (queued requests are completed)."""
        self.engine.shutdown()

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
