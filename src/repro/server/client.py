"""Socket client for the router server.

:class:`RouterClient` speaks the :mod:`repro.server.protocol` frames over
one persistent connection (TCP or UDS).  Its ``route`` matches the
in-process router contract — returns a
:class:`~repro.core.semilightpath.Semilightpath`, raises
:class:`~repro.exceptions.NoPathError` on unreachable pairs — so it can
stand in wherever a routing backend is expected (e.g. behind the service
cache).  Transient failures (a worker crashing mid-request surfaces as
:class:`~repro.exceptions.WorkerCrashError`) are retried through the
existing :class:`~repro.faults.resilience.RetryPolicy`; everything else
maps to :class:`~repro.exceptions.RemoteRouterError`.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Hashable

from repro.core.semilightpath import Semilightpath
from repro.exceptions import (
    NoPathError,
    ProtocolError,
    RemoteRouterError,
    WorkerCrashError,
)
from repro.faults.resilience import RetryPolicy
from repro.server import protocol
from repro.server.protocol import Op

__all__ = ["RouterClient"]

NodeId = Hashable

#: Error names the server may send that map back to *retryable* errors.
_TRANSIENT_ERRORS = {"WorkerCrashError", "TransientBackendError"}


def _map_error(payload: Any) -> Exception:
    """Turn an ``ERR`` payload ``(type_name, message)`` into an exception."""
    try:
        name, message = payload
    except (TypeError, ValueError):
        return ProtocolError(f"malformed ERR payload: {payload!r}")
    if name in _TRANSIENT_ERRORS:
        return WorkerCrashError(message)
    if name == "ProtocolError":
        return ProtocolError(message)
    return RemoteRouterError(f"{name}: {message}")


class RouterClient:
    """A client for one :class:`~repro.server.server.RouterServer`.

    Parameters
    ----------
    address:
        A ``(host, port)`` tuple (TCP) or a UDS path string — exactly
        what ``RouterServer.address`` returns.
    retry:
        Policy for transient failures; ``None`` installs the default
        3-attempt policy.  Pass ``RetryPolicy(max_attempts=1)`` to see
        raw :class:`WorkerCrashError`\\ s (the kill tests do).
    timeout:
        Socket timeout per frame exchange, seconds.
    """

    def __init__(
        self,
        address,
        *,
        retry: RetryPolicy | None = None,
        timeout: float = 120.0,
    ) -> None:
        self._address = address
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    # -- connection management ------------------------------------------------

    def _connect(self) -> socket.socket:
        if isinstance(self._address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        try:
            sock.connect(
                self._address
                if isinstance(self._address, str)
                else tuple(self._address)
            )
        except OSError as exc:
            sock.close()
            raise RemoteRouterError(
                f"cannot connect to router server at {self._address!r}: {exc}"
            ) from exc
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Close the connection (idempotent; the server keeps running)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- frame exchange -------------------------------------------------------

    def _call(self, op: Op, payload: Any = None):
        """One request/reply exchange; raises the mapped server error."""
        with self._lock:
            if self._sock is None:
                self._sock = self._connect()
            try:
                protocol.send_frame(self._sock, op, payload)
                reply = protocol.read_frame(self._sock)
            except ProtocolError as exc:
                self._drop()
                raise ProtocolError(f"reply stream corrupted: {exc}") from exc
            except OSError as exc:
                self._drop()
                raise RemoteRouterError(
                    f"connection to router server lost: {exc}"
                ) from exc
            if reply is None:
                self._drop()
                raise RemoteRouterError("server closed the connection")
        rop, rpayload = reply
        if rop == Op.OK:
            return rpayload
        if rop == Op.ERR:
            raise _map_error(rpayload)
        raise ProtocolError(f"unexpected reply opcode {int(rop):#04x}")

    def _call_retrying(self, op: Op, payload: Any = None):
        return self._retry.call(lambda: self._call(op, payload))

    # -- routing API ----------------------------------------------------------

    def route(self, source: NodeId, target: NodeId) -> Semilightpath:
        """Optimal semilightpath, or :class:`NoPathError` — router contract."""
        reply = self._call_retrying(Op.ROUTE, (source, target))
        path = protocol.decode_path(reply["path"])
        if path is None:
            raise NoPathError(source, target)
        return path

    def route_with_epoch(
        self, source: NodeId, target: NodeId
    ) -> tuple[Semilightpath | None, int]:
        """Like :meth:`route`, plus the segment epoch the answer saw.

        Returns ``(path, epoch)`` with ``None`` for unreachable pairs
        instead of raising — the cluster soak uses the epoch to pick the
        fault-state oracle each answer must match byte-for-byte.
        """
        reply = self._call_retrying(Op.ROUTE, (source, target))
        return protocol.decode_path(reply["path"]), reply["epoch"]

    def route_batch(
        self, pairs: list[tuple[NodeId, NodeId]]
    ) -> list[Semilightpath | None]:
        """Paths for *pairs* in order; ``None`` marks unreachable pairs."""
        reply = self._call_retrying(Op.ROUTE_BATCH, list(pairs))
        return [protocol.decode_path(wire) for wire in reply["paths"]]

    # -- control plane --------------------------------------------------------

    def patch(
        self,
        ops: list[tuple[str, tuple]],
        *,
        origin: str | None = None,
        seq: int | None = None,
    ) -> dict[str, Any]:
        """Apply a fault batch: ``[("fail_link", (u, v)), ...]``.

        Not retried: a PATCH is not idempotent (events bump the delta
        epoch), so transient failures surface to the caller.  With
        *origin* and *seq* the batch is sent as a gossip envelope — the
        server dedups on ``(origin, seq)`` and answers ``duplicate``
        for a re-delivery, which is what makes replica flooding (and a
        frontend re-sending a patch to a second replica) idempotent.
        """
        if origin is None:
            return self._call(Op.PATCH, list(ops))
        if seq is None:
            raise ValueError("a gossip-enveloped patch needs both origin and seq")
        return self._call(
            Op.PATCH, {"ops": list(ops), "origin": origin, "seq": seq}
        )

    def snapshot(self) -> dict[str, Any]:
        """Static facts: segment name and size, epochs, worker count."""
        return self._call_retrying(Op.SNAPSHOT)

    def stats(self) -> dict[str, Any]:
        """Live counters: per-worker pid/liveness, respawns, pending jobs."""
        return self._call_retrying(Op.STATS)

    def sleep(self, seconds: float) -> dict[str, Any]:
        """Debug servers only: pin a worker in ``time.sleep`` (kill tests)."""
        return self._call(Op.SLEEP, seconds)

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to shut down cleanly (unlinks its segment)."""
        try:
            return self._call(Op.SHUTDOWN)
        finally:
            self.close()
