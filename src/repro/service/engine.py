"""Concurrent query execution: worker pool, bounded queue, coalescing.

:class:`QueryEngine` turns the epoch cache into a request-driven server:

* **Bounded queue with backpressure** — :meth:`~QueryEngine.submit`
  rejects with :class:`~repro.exceptions.ServiceOverloadError` when
  ``queue_limit`` requests are already pending, so overload surfaces at
  the edge instead of as unbounded memory growth.
* **Worker pool** — ``workers`` daemon threads drain the queue.  With
  ``workers=0`` nothing drains automatically; call
  :meth:`~QueryEngine.run_pending` to process inline (deterministic
  single-threaded mode, used by tests and the synchronous CLI path).
* **Deadlines** — a per-request timeout; every way a deadline can be
  missed (expiry while queued, the caller's wait outliving the request)
  surfaces as one typed :class:`~repro.exceptions.DeadlineExceeded`
  carrying the elapsed time, counted under ``engine.deadline_exceeded``.
* **Retry with backoff** — an optional
  :class:`~repro.faults.resilience.RetryPolicy` re-issues backend calls
  that fail with :class:`~repro.exceptions.TransientBackendError`
  (exponential backoff, full jitter, never sleeping past the request's
  deadline).
* **Circuit breaker** — an optional
  :class:`~repro.faults.resilience.CircuitBreaker` around the routing
  backend fails fast with :class:`~repro.exceptions.CircuitOpenError`
  while the backend is known-bad, so a fault storm cannot pile every
  worker onto a failing cache rebuild.
* **Same-source coalescing** — when a worker dequeues a request it also
  claims every other pending request with the same source, answering the
  whole group from one shortest-path tree.  Under bursty fan-out from one
  ingress node this collapses N Dijkstra runs into one.  When no guard is
  configured (no retry, breaker, or fault hook), the claimed batch is
  served through **one** :meth:`EpochRouterCache.route_batch` backend
  call — one cache-lock acquisition and one tree fetch for the whole
  group (counted under ``engine.batched``) — instead of re-entering the
  cache per request; guarded serving keeps the per-request path so every
  request gets its own admission check and backoff schedule.

Results are delivered through :class:`QueryFuture`, a minimal
event-based future (no ``concurrent.futures`` dependency so the engine
controls queue admission itself).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.semilightpath import Semilightpath
from repro.exceptions import (
    DeadlineExceeded,
    NoPathError,
    ServiceClosedError,
    ServiceOverloadError,
    TransientBackendError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.resilience import CircuitBreaker, RetryPolicy
    from repro.service.cache import EpochRouterCache
    from repro.service.metrics import MetricsRegistry

__all__ = ["QueryFuture", "QueryEngine"]

NodeId = Hashable


class QueryFuture:
    """Completion handle for one submitted query."""

    __slots__ = ("_event", "_path", "_exception", "_epoch")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._path: Semilightpath | None = None
        self._exception: BaseException | None = None
        self._epoch = -1

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def epoch(self) -> int:
        """Cache epoch the answer was computed on (-1 until resolved)."""
        return self._epoch

    def _resolve(self, path: Semilightpath, epoch: int = -1) -> None:
        self._path = path
        self._epoch = epoch
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()

    def result(self, timeout: float | None = None) -> Semilightpath:
        """Block for the routed path; re-raises the query's failure.

        Raises :class:`TimeoutError` if the result does not arrive within
        *timeout* seconds (the query itself keeps running).
        """
        if not self._event.wait(timeout):
            raise TimeoutError("query result not ready")
        if self._exception is not None:
            raise self._exception
        if self._path is None:
            # The event is set exactly by _resolve/_fail; reaching here with
            # neither a path nor an exception means the future was resolved
            # incorrectly.  A real exception so the invariant holds under
            # ``python -O``.
            raise ValueError("query future resolved without a path or an error")
        return self._path


@dataclass
class _Request:
    source: NodeId
    target: NodeId
    deadline: float | None  # absolute time.monotonic() instant
    future: QueryFuture = field(default_factory=QueryFuture)
    enqueued_at: float = 0.0


class QueryEngine:
    """Thread-pool execution of routing queries over an epoch cache.

    Parameters
    ----------
    cache:
        The shared :class:`~repro.service.cache.EpochRouterCache`.
    workers:
        Background worker threads (0 = synchronous mode, drain with
        :meth:`run_pending`).
    queue_limit:
        Maximum pending requests before :meth:`submit` rejects.
    metrics:
        Optional registry for queue/latency/coalescing instruments.
    retry:
        Optional :class:`~repro.faults.resilience.RetryPolicy` applied to
        transient backend failures (off by default — plain serving keeps
        its historical fail-fast behavior).
    breaker:
        Optional :class:`~repro.faults.resilience.CircuitBreaker` guarding
        the backend call.

    The public ``fault_hook`` attribute, when set, is invoked inside a
    worker before every backend attempt — the chaos layer's injection
    point (:meth:`repro.faults.injector.FaultInjector.worker_hook`).
    """

    def __init__(
        self,
        cache: "EpochRouterCache",
        workers: int = 4,
        queue_limit: int = 256,
        metrics: "MetricsRegistry | None" = None,
        retry: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self.cache = cache
        self.queue_limit = queue_limit
        self.retry = retry
        self.breaker = breaker
        self.fault_hook: "Callable[[], None] | None" = None
        self._metrics = metrics
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-query-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self._threads)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> QueryFuture:
        """Enqueue a query; returns immediately with its future.

        Raises :class:`ServiceOverloadError` when the queue is full and
        :class:`ServiceClosedError` after :meth:`shutdown`.
        """
        now = time.monotonic()
        request = _Request(
            source=source,
            target=target,
            deadline=None if timeout is None else now + timeout,
            enqueued_at=now,
        )
        with self._cond:
            if self._closed:
                raise ServiceClosedError("engine is shut down")
            if len(self._queue) >= self.queue_limit:
                if self._metrics is not None:
                    self._metrics.counter("engine.rejected").inc()
                raise ServiceOverloadError(self.queue_limit)
            self._queue.append(request)
            depth = len(self._queue)
            self._cond.notify()
        if self._metrics is not None:
            self._metrics.gauge("engine.queue_depth").set(depth)
            self._metrics.counter("engine.submitted").inc()
        return request.future

    def route(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> Semilightpath:
        """Submit and wait; in synchronous mode also drains the queue."""
        return self.route_with_epoch(source, target, timeout=timeout)[0]

    def route_with_epoch(
        self, source: NodeId, target: NodeId, timeout: float | None = None
    ) -> tuple[Semilightpath, int]:
        """Like :meth:`route` but also returns the cache epoch the answer
        was computed on (the serving layer's staleness bookkeeping).

        Every way *timeout* can be missed — expiry while queued, or this
        wait outliving the request — raises the same typed
        :class:`~repro.exceptions.DeadlineExceeded` with the elapsed
        time, counted once under ``engine.deadline_exceeded``.
        """
        start = time.monotonic()
        future = self.submit(source, target, timeout=timeout)
        if not self._threads:
            self.run_pending()
        # Wait a little past the request deadline: an expired request still
        # needs a worker to *observe* the expiry and resolve the future.
        try:
            path = future.result(None if timeout is None else timeout + 1.0)
        except TimeoutError:
            # The request outlived even the grace period (e.g. a worker
            # wedged mid-build).  Same failure mode as queue expiry.
            if self._metrics is not None:
                self._metrics.counter("engine.deadline_exceeded").inc()
            raise DeadlineExceeded(
                source, target, elapsed=time.monotonic() - start
            ) from None
        return path, future.epoch

    # -- execution -----------------------------------------------------------

    def _claim_batch_locked(self, first: _Request) -> list[_Request]:
        """Pop *first*'s same-source companions from the queue (coalescing)."""
        batch = [first]
        remaining: deque[_Request] = deque()
        while self._queue:
            request = self._queue.popleft()
            if request.source == first.source:
                batch.append(request)
            else:
                remaining.append(request)
        self._queue.extend(remaining)
        if len(batch) > 1 and self._metrics is not None:
            self._metrics.counter("engine.coalesced").inc(len(batch) - 1)
        return batch

    def _serve(self, request: _Request) -> None:
        now = time.monotonic()
        if request.deadline is not None and now > request.deadline:
            if self._metrics is not None:
                self._metrics.counter("engine.expired").inc()
                self._metrics.counter("engine.deadline_exceeded").inc()
            request.future._fail(
                DeadlineExceeded(
                    request.source,
                    request.target,
                    elapsed=now - request.enqueued_at,
                )
            )
            return
        try:
            path, epoch = self._call_backend(request)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
            if isinstance(exc, NoPathError) and self._metrics is not None:
                self._metrics.counter("engine.no_path").inc()
            request.future._fail(exc)
            return
        if self._metrics is not None:
            self._metrics.counter("engine.served").inc()
            self._metrics.histogram("engine.latency_ms").observe(
                (time.monotonic() - request.enqueued_at) * 1e3
            )
        request.future._resolve(path, epoch)

    def _call_backend(self, request: _Request) -> tuple[Semilightpath, int]:
        """One guarded backend call: breaker admission, fault hook, retry.

        :class:`~repro.exceptions.NoPathError` counts as backend *success*
        for the breaker (the backend answered; unreachable is a valid
        answer).  :class:`~repro.exceptions.CircuitOpenError` from the
        admission check propagates without retry — failing fast is the
        point of the breaker.
        """

        def attempt() -> tuple[Semilightpath, int]:
            if self.breaker is not None:
                self.breaker.before_call()
            try:
                if self.fault_hook is not None:
                    self.fault_hook()
                result = self.cache.route_with_epoch(
                    request.source, request.target
                )
            except TransientBackendError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self._metrics is not None:
                    self._metrics.counter("engine.backend_faults").inc()
                raise
            except NoPathError:
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            return result

        if self.retry is None:
            return attempt()

        def on_retry(attempt_index: int, exc: BaseException) -> None:
            del attempt_index, exc
            if self._metrics is not None:
                self._metrics.counter("engine.retries").inc()

        return self.retry.call(
            attempt, deadline=request.deadline, on_retry=on_retry
        )

    def _serve_batch(self, batch: list[_Request]) -> None:
        if (
            len(batch) > 1
            and self.retry is None
            and self.breaker is None
            and self.fault_hook is None
        ):
            self._serve_coalesced(batch)
        else:
            # Guarded serving (retry/breaker/fault injection) keeps the
            # per-request path: each request gets its own admission check,
            # hook invocation, and backoff schedule.
            for request in batch:
                self._serve(request)
        if self._metrics is not None:
            self._metrics.gauge("engine.queue_depth").set(self.queue_depth)

    def _serve_coalesced(self, batch: list[_Request]) -> None:
        """Serve a claimed same-source batch from one backend call.

        One :meth:`EpochRouterCache.route_batch` call — one lock
        acquisition, one refresh check, one tree fetch — answers every
        live request; per-request outcomes (expiry, ``source == target``
        validation, unreachability) keep exactly the semantics of the
        per-request path.  Counted under ``engine.batched``.
        """
        now = time.monotonic()
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                if self._metrics is not None:
                    self._metrics.counter("engine.expired").inc()
                    self._metrics.counter("engine.deadline_exceeded").inc()
                request.future._fail(
                    DeadlineExceeded(
                        request.source,
                        request.target,
                        elapsed=now - request.enqueued_at,
                    )
                )
            elif request.source == request.target:
                # A request error, not an unreachability answer — let the
                # per-request path raise the cache's ValueError verbatim.
                self._serve(request)
            else:
                live.append(request)
        if not live:
            return
        try:
            answers = self.cache.route_batch(
                live[0].source, [request.target for request in live]
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the callers
            for request in live:
                request.future._fail(exc)
            return
        if self._metrics is not None:
            self._metrics.counter("engine.batched").inc(len(live))
        for request, (path, epoch) in zip(live, answers):
            if path is None:
                if self._metrics is not None:
                    self._metrics.counter("engine.no_path").inc()
                request.future._fail(
                    NoPathError(request.source, request.target)
                )
                continue
            if self._metrics is not None:
                self._metrics.counter("engine.served").inc()
                self._metrics.histogram("engine.latency_ms").observe(
                    (time.monotonic() - request.enqueued_at) * 1e3
                )
            request.future._resolve(path, epoch)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                first = self._queue.popleft()
                batch = self._claim_batch_locked(first)
            self._serve_batch(batch)

    def run_pending(self) -> int:
        """Drain the queue on the calling thread; returns requests served.

        The synchronous twin of the worker loop — used when
        ``workers=0`` and by tests that need deterministic scheduling.
        """
        served = 0
        while True:
            with self._cond:
                if not self._queue:
                    return served
                first = self._queue.popleft()
                batch = self._claim_batch_locked(first)
            self._serve_batch(batch)
            served += len(batch)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting requests; workers finish what is queued."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
