"""The routing-service facade: cache + guarded backend call + metrics.

:class:`RoutingService` is the serving layer's front door.  It owns an
:class:`~repro.service.cache.EpochRouterCache` (epoch-versioned ``G_all``
and per-source trees) and a :class:`~repro.service.metrics.MetricsRegistry`,
and answers every query on its caller's thread: a deadline check, then
one backend call guarded by the optional circuit breaker, the chaos
layer's ``fault_hook`` and the optional retry policy.  Callers may share
one service across threads; the cache serializes its own state.

Static serving::

    service = RoutingService(network)
    path = service.route(s, t)

The network may also be a zero-argument callable (a live view such as
``SemilightpathProvisioner.residual_network``); the cache calls it on
every rebuild.  Resource removals (``notify_link_degraded``,
``notify_converter_degraded``) are masked in the cached ``G_all`` and
the cached trees repaired in place, recoveries are unmasked in place,
and any other change goes through :meth:`RoutingService.invalidate`.

Degraded-mode serving
---------------------
:meth:`RoutingService.route_resilient` answers through a three-step
degrade chain and reports *how* it answered in a :class:`RouteOutcome`:

1. **fresh** — the normal guarded path (retry/backoff and circuit
   breaker included when configured);
2. **stale** — when the backend fails transiently or the breaker is
   open, the last-good answer for the pair is served with an explicit
   staleness flag (``outcome.stale``) and counted under
   ``service.stale_served``; the next fresh answer for the pair
   replaces it;
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
    DeadlineExceeded,
    NoPathError,
    TransientBackendError,
)
from repro.service.cache import EpochRouterCache
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
    metrics:
        Bring-your-own registry; a private one is created otherwise.
    retry:
        Optional :class:`~repro.faults.resilience.RetryPolicy` for
        transient backend failures (off by default: plain serving fails
        fast).
    breaker:
        Optional :class:`~repro.faults.resilience.CircuitBreaker` around
        the routing backend; its state is published as the
        ``engine.breaker_state`` gauge (0 closed, 1 half-open, 2 open).
    last_good_limit:
        Bound on the last-good answer store (LRU-evicted).

    The public ``fault_hook`` attribute, when set, is called before
    every backend attempt — the chaos layer's injection point
    (:meth:`repro.faults.injector.FaultInjector.attach` installs it).

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> RoutingService(paper_figure1_network()).route(1, 7).total_cost
    2.0
    """

    def __init__(
        self,
        network: "WDMNetwork | Callable[[], WDMNetwork]",
        metrics: MetricsRegistry | None = None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        last_good_limit: int = 65536,
    ) -> None:
        if last_good_limit < 1:
            raise ValueError("last_good_limit must be positive")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = EpochRouterCache(network, metrics=self.metrics)
        self.retry = retry
        self.breaker = breaker
        self.fault_hook: Callable[[], None] | None = None
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

        Raises :class:`~repro.exceptions.NoPathError` when unreachable and
        :class:`~repro.exceptions.DeadlineExceeded` when *timeout* has
        already elapsed before the backend is called.
        """
        start = time.monotonic()
        try:
            path, epoch = self._serve(source, target, start, timeout)
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

        Semantic outcomes (:class:`~repro.exceptions.NoPathError`, a
        missed deadline) propagate unchanged — degradation only engages
        when the *backend* fails
        (:class:`~repro.exceptions.TransientBackendError` surviving the
        retries, or :class:`~repro.exceptions.CircuitOpenError` from an
        open breaker).  See the module docstring for the chain.
        """
        start = time.monotonic()
        try:
            path, epoch = self._serve(source, target, start, timeout)
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

    def _serve(
        self,
        source: NodeId,
        target: NodeId,
        start: float,
        timeout: float | None,
    ) -> tuple[Semilightpath, int]:
        """Deadline check, then one guarded backend call; counted.

        An expired request raises the typed
        :class:`~repro.exceptions.DeadlineExceeded` with its elapsed time
        (``engine.deadline_exceeded``); retries never back off past the
        deadline.  ``engine.served`` and ``engine.no_path`` count the
        backend's answers.
        """
        deadline = None if timeout is None else start + timeout
        if deadline is not None:
            now = time.monotonic()
            if now >= deadline:
                self.metrics.counter("engine.deadline_exceeded").inc()
                raise DeadlineExceeded(source, target, elapsed=now - start)
        try:
            result = self._call_backend(source, target, deadline)
        except NoPathError:
            self.metrics.counter("engine.no_path").inc()
            raise
        self.metrics.counter("engine.served").inc()
        return result

    def _call_backend(
        self, source: NodeId, target: NodeId, deadline: float | None
    ) -> tuple[Semilightpath, int]:
        """One guarded backend call: breaker admission, fault hook, retry.

        :class:`~repro.exceptions.NoPathError` counts as backend *success*
        for the breaker (the backend answered; unreachable is a valid
        answer).  :class:`~repro.exceptions.CircuitOpenError` from the
        admission check propagates without retry — failing fast is the
        point of the breaker.
        """
        breaker = self.breaker

        def attempt() -> tuple[Semilightpath, int]:
            if breaker is not None:
                breaker.before_call()
            try:
                if self.fault_hook is not None:
                    self.fault_hook()
                result = self.cache.route_with_epoch(source, target)
            except TransientBackendError:
                if breaker is not None:
                    breaker.record_failure()
                self.metrics.counter("engine.backend_faults").inc()
                raise
            except NoPathError:
                if breaker is not None:
                    breaker.record_success()
                raise
            if breaker is not None:
                breaker.record_success()
            return result

        if self.retry is None:
            return attempt()

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            del attempt_index, exc
            self.metrics.counter("engine.retries").inc()

        return self.retry.call(attempt, deadline=deadline, on_retry=on_retry)

    def _degraded(self, source: NodeId, target: NodeId) -> RouteOutcome | None:
        """The last-good answer, else a shared-state-free rebuild."""
        with self._last_good_lock:
            entry = self._last_good.get((source, target))
        if entry is not None:
            path, epoch = entry
            self.metrics.counter("service.stale_served").inc()
            return RouteOutcome(path=path, epoch=epoch, mode="stale")
        try:
            path, snapshot = self.cache.route_rebuild(source, target)
        except TransientBackendError:
            return None  # rebuild hit the same fault; caller re-raises fresh error
        self.metrics.counter("service.rebuild_fallback").inc()
        return RouteOutcome(path=path, epoch=-1, mode="rebuild", snapshot=snapshot)

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

    # -- reporting -----------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, object]:
        """All service metrics as a flat dict."""
        return self.metrics.snapshot()

    def render_metrics(self) -> str:
        """Human-readable metrics report."""
        return self.metrics.render()
