"""The tier's client: placement, failover, admission, shedding.

:class:`FrontendRouter` is what application code talks to.  It owns no
servers — it routes each query to the shard the placement ring assigns
(by source node), walks that shard's replicas with per-replica circuit
breakers, and bounds the number of in-flight requests, shedding the
excess with :class:`~repro.exceptions.ServiceOverloadError`.

Failure handling composes the existing pieces rather than inventing new
ones:

* a worker crash inside a replica surfaces as
  :class:`~repro.exceptions.WorkerCrashError` after the
  :class:`~repro.server.client.RouterClient`'s own
  :class:`~repro.faults.resilience.RetryPolicy` is exhausted — the
  frontend then **fails over** to the next replica of the same shard;
* repeated failures trip that replica's
  :class:`~repro.faults.resilience.CircuitBreaker`; while open the
  replica is **ejected** from rotation (skipped without a connection
  attempt) until the reset timeout admits a probe;
* :class:`~repro.exceptions.NoPathError` is a *successful* answer
  (the backend worked; the pair is unreachable) — it feeds
  ``record_success`` and propagates.

Fault patches go to **one** replica of *every* shard (each shard holds
a full copy of the network); replica-internal gossip floods the patch
to the rest, so the frontend retries a patch only on definitely-unsent
connection failures — a PATCH is not idempotent in plain form.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Hashable

from repro.exceptions import (
    CircuitOpenError,
    NoPathError,
    ProtocolError,
    RemoteRouterError,
    ServiceOverloadError,
    WorkerCrashError,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.server.client import RouterClient
from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.shards import ShardManager
    from repro.core.semilightpath import Semilightpath

__all__ = ["FrontendRouter"]

NodeId = Hashable


class FrontendRouter:
    """Query frontend over a :class:`~repro.cluster.shards.ShardManager`.

    Parameters
    ----------
    manager:
        A started tier; the frontend reads its ring and addresses.
    max_inflight:
        Admission bound: concurrent calls beyond this are shed with
        :class:`ServiceOverloadError` (``None`` = unbounded).
    retry:
        Per-replica transient-retry policy for the underlying clients
        (``None`` installs the stock 3-attempt policy).
    breaker_threshold / breaker_reset:
        Per-replica circuit breaker tuning (consecutive failures to
        open; seconds until a half-open probe).
    timeout:
        Socket timeout per frame exchange, seconds.

    Thread safety: fully thread-safe; each thread gets its own socket
    per replica (the wire protocol is strictly request/reply per
    connection), while breakers and counters are shared.
    """

    def __init__(
        self,
        manager: "ShardManager",
        *,
        max_inflight: int | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 0.5,
        timeout: float = 120.0,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        self._manager = manager
        self._retry = retry
        self._timeout = timeout
        self._addresses = [
            manager.replica_addresses(shard)
            for shard in range(manager.num_shards)
        ]
        self._breakers = {
            (shard, replica): CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset,
            )
            for shard in range(manager.num_shards)
            for replica in range(manager.num_replicas)
        }
        #: Per-shard rotation so replicas share read load evenly.
        self._rotation = [
            itertools.count(shard) for shard in range(manager.num_shards)
        ]
        self._max_inflight = max_inflight
        self._inflight_sem = (
            threading.BoundedSemaphore(max_inflight)
            if max_inflight is not None
            else None
        )
        self._local = threading.local()
        self._all_clients: list[RouterClient] = []
        self._clients_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._shed = self.metrics.counter("frontend.shed")
        self._failovers = self.metrics.counter("frontend.failovers")
        self._ejected = self.metrics.counter("frontend.breaker_skips")
        self._shard_queries = [
            self.metrics.counter(f"frontend.shard.{shard}.queries")
            for shard in range(manager.num_shards)
        ]

    # -- client plumbing ------------------------------------------------------

    def _client(self, shard: int, replica: int) -> RouterClient:
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        client = clients.get((shard, replica))
        if client is None:
            client = RouterClient(
                self._addresses[shard][replica],
                retry=self._retry,
                timeout=self._timeout,
            )
            clients[(shard, replica)] = client
            with self._clients_lock:
                self._all_clients.append(client)
        return client

    def close(self) -> None:
        """Close every connection this frontend ever opened (idempotent)."""
        with self._clients_lock:
            clients, self._all_clients = self._all_clients, []
        for client in clients:
            client.close()

    def __enter__(self) -> "FrontendRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- admission ------------------------------------------------------------

    def _admit(self):
        if self._inflight_sem is None:
            return None
        if not self._inflight_sem.acquire(blocking=False):
            self._shed.inc()
            raise ServiceOverloadError(self._max_inflight)
        return self._inflight_sem

    # -- failover core --------------------------------------------------------

    def _with_failover(self, shard: int, call):
        """Run *call(client)* against shard replicas until one answers.

        Replica order rotates per call; a replica whose breaker is open
        is skipped (ejected) without a connection attempt.  Transient
        and transport errors advance to the next replica; definitive
        answers — including :class:`NoPathError` — return/raise
        immediately and feed the breaker a success.
        """
        replicas = self._manager.num_replicas
        offset = next(self._rotation[shard])
        last_error: Exception | None = None
        for step in range(replicas):
            replica = (offset + step) % replicas
            breaker = self._breakers[(shard, replica)]
            try:
                breaker.before_call()
            except CircuitOpenError as exc:
                self._ejected.inc()
                last_error = exc
                continue
            client = self._client(shard, replica)
            try:
                result = call(client)
            except NoPathError:
                breaker.record_success()
                raise
            except (WorkerCrashError, RemoteRouterError, ProtocolError) as exc:
                breaker.record_failure()
                client.close()
                self._failovers.inc()
                last_error = exc
                continue
            breaker.record_success()
            return result
        raise RemoteRouterError(
            f"all {replicas} replica(s) of shard {shard} unavailable: "
            f"{last_error}"
        ) from last_error

    # -- routing API ----------------------------------------------------------

    def shard_for(self, source: NodeId) -> int:
        return self._manager.shard_for(source)

    def route(self, source: NodeId, target: NodeId) -> "Semilightpath":
        """Router contract: a path, or :class:`NoPathError`."""
        sem = self._admit()
        try:
            shard = self._manager.shard_for(source)
            self._shard_queries[shard].inc()
            return self._with_failover(
                shard, lambda client: client.route(source, target)
            )
        finally:
            if sem is not None:
                sem.release()

    def route_with_epoch(
        self, source: NodeId, target: NodeId
    ) -> "tuple[Semilightpath | None, int]":
        """``(path | None, epoch)`` — the soak's verification probe."""
        sem = self._admit()
        try:
            shard = self._manager.shard_for(source)
            self._shard_queries[shard].inc()
            return self._with_failover(
                shard, lambda client: client.route_with_epoch(source, target)
            )
        finally:
            if sem is not None:
                sem.release()

    def route_batch(
        self, pairs: "list[tuple[NodeId, NodeId]]"
    ) -> "list[Semilightpath | None]":
        """Paths for *pairs* in order (``None`` = unreachable).

        Pairs are grouped by owning shard, each group travels as one
        ``ROUTE_BATCH`` frame, and answers are stitched back into input
        order.  One admission slot covers the whole batch — admission
        bounds concurrent *calls* (sockets in flight), matching a load
        generator where one thread is one caller.
        """
        sem = self._admit()
        try:
            by_shard: dict[int, list[tuple[int, tuple[NodeId, NodeId]]]] = {}
            for index, pair in enumerate(pairs):
                shard = self._manager.shard_for(pair[0])
                by_shard.setdefault(shard, []).append((index, pair))
            answers: list[Any] = [None] * len(pairs)
            for shard, group in by_shard.items():
                self._shard_queries[shard].inc(len(group))
                shard_pairs = [pair for _index, pair in group]
                results = self._with_failover(
                    shard, lambda client, p=shard_pairs: client.route_batch(p)
                )
                for (index, _pair), result in zip(group, results):
                    answers[index] = result
            return answers
        finally:
            if sem is not None:
                sem.release()

    # -- control plane --------------------------------------------------------

    def patch(self, ops: "list[tuple[str, tuple]]") -> list[dict[str, Any]]:
        """Apply a fault batch tier-wide: one replica per shard, gossip
        does the rest.  Returns the accepting replica's reply per shard.

        Failover is deliberately narrower than for reads: only a
        *connection* failure (raised before the frame was sent) moves to
        the next replica.  A failure after send is ambiguous — the patch
        may have been applied — and plain-form PATCH is not idempotent,
        so it surfaces to the caller instead of risking a double apply.
        """
        replies = []
        for shard in range(self._manager.num_shards):
            last_error: Exception | None = None
            for replica in range(self._manager.num_replicas):
                client = self._client(shard, replica)
                try:
                    replies.append(client.patch(list(ops)))
                    break
                except RemoteRouterError as exc:
                    if "cannot connect" not in str(exc):
                        raise
                    client.close()
                    self._failovers.inc()
                    last_error = exc
            else:
                raise RemoteRouterError(
                    f"no replica of shard {shard} accepted the patch"
                ) from last_error
        return replies

    def stats(self) -> list[list[dict[str, Any]]]:
        """``[shard][replica]`` → server ``STATS`` reply."""
        return [
            [
                self._client(shard, replica).stats()
                for replica in range(self._manager.num_replicas)
            ]
            for shard in range(self._manager.num_shards)
        ]
