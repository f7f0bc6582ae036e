"""Exception hierarchy for the semilightpath routing library.

All library-raised exceptions derive from :class:`SemilightError` so callers
can catch everything from this package with a single ``except`` clause while
still being able to discriminate the failure mode.
"""

from __future__ import annotations

__all__ = [
    "SemilightError",
    "NetworkStructureError",
    "UnknownNodeError",
    "UnknownLinkError",
    "WavelengthError",
    "WavelengthUnavailableError",
    "ConversionError",
    "NoPathError",
    "MulticastBlockedError",
    "InvalidPathError",
    "RestrictionViolation",
    "ReservationError",
    "SimulationError",
    "SerializationError",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceeded",
    "TransientBackendError",
    "InjectedFaultError",
    "CircuitOpenError",
    "DeltaParityError",
    "SharedSegmentError",
    "ProtocolError",
    "WorkerCrashError",
    "RemoteRouterError",
]


class SemilightError(Exception):
    """Base class for every exception raised by this library."""


class NetworkStructureError(SemilightError):
    """The network definition is malformed (duplicate links, bad ids, ...)."""


class UnknownNodeError(NetworkStructureError, KeyError):
    """A node id was referenced that is not part of the network."""

    def __init__(self, node: object) -> None:
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class UnknownLinkError(NetworkStructureError, KeyError):
    """A link (tail, head) was referenced that is not part of the network."""

    def __init__(self, tail: object, head: object) -> None:
        super().__init__(f"unknown link: {tail!r} -> {head!r}")
        self.tail = tail
        self.head = head


class WavelengthError(SemilightError):
    """A wavelength index is out of range or otherwise invalid."""


class WavelengthUnavailableError(WavelengthError):
    """A wavelength was used on a link whose ``Λ(e)`` does not contain it."""

    def __init__(self, tail: object, head: object, wavelength: object) -> None:
        super().__init__(
            f"wavelength {wavelength!r} is not available on link "
            f"{tail!r} -> {head!r}"
        )
        self.tail = tail
        self.head = head
        self.wavelength = wavelength


class ConversionError(SemilightError):
    """A wavelength conversion was requested that the node cannot perform."""

    def __init__(self, node: object, from_wavelength: object, to_wavelength: object) -> None:
        super().__init__(
            f"node {node!r} cannot convert {from_wavelength!r} -> {to_wavelength!r}"
        )
        self.node = node
        self.from_wavelength = from_wavelength
        self.to_wavelength = to_wavelength


class NoPathError(SemilightError):
    """No semilightpath exists between the requested endpoints."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"no semilightpath from {source!r} to {target!r}")
        self.source = source
        self.target = target


class MulticastBlockedError(NoPathError):
    """A multicast request could not join every member.

    Subclasses :class:`NoPathError` so admission paths that treat
    blocking as a normal outcome (``try_establish`` and friends) handle
    multicast blocking identically.  ``unjoined`` lists the members the
    joiner could not graft under the splitter constraints.
    """

    def __init__(self, source: object, unjoined: tuple) -> None:
        SemilightError.__init__(
            self,
            f"multicast from {source!r} blocked; unjoined members: "
            f"{sorted(unjoined, key=repr)!r}",
        )
        self.source = source
        self.target = None
        self.unjoined = tuple(unjoined)


class InvalidPathError(SemilightError):
    """A semilightpath object violates its structural invariants."""


class RestrictionViolation(SemilightError):
    """The network fails Restriction 1 or Restriction 2 from the paper."""


class ReservationError(SemilightError):
    """A wavelength reservation conflict in the provisioning layer."""


class SimulationError(SemilightError):
    """The distributed or dynamic-traffic simulator reached a bad state."""


class SerializationError(SemilightError):
    """A network or result document could not be (de)serialized."""


class ServiceError(SemilightError):
    """Base class for routing-service failures (:mod:`repro.service`)."""


class ServiceOverloadError(ServiceError):
    """The serving tier's in-flight bound is reached (backpressure).

    Callers should retry later or shed load; the rejected query was never
    sent and had no effect.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"{limit} request(s) in flight; request rejected")
        self.limit = limit


class DeadlineExceeded(ServiceError):
    """A query's deadline passed before it could be answered.

    ``elapsed`` is the seconds between the call and the moment the
    expiry was observed, when known.
    """

    def __init__(
        self, source: object, target: object, elapsed: float | None = None
    ) -> None:
        detail = f" after {elapsed:.3f}s" if elapsed is not None else ""
        super().__init__(
            f"deadline exceeded{detail} routing {source!r} -> {target!r}"
        )
        self.source = source
        self.target = target
        self.elapsed = elapsed


class TransientBackendError(ServiceError):
    """A routing backend failed in a way that is safe to retry.

    The query had no side effects; callers (and the service's retry
    policy) may re-issue it, ideally after a backoff.
    """


class InjectedFaultError(TransientBackendError):
    """A fault deliberately injected by the chaos layer (:mod:`repro.faults`).

    Subclasses :class:`TransientBackendError` so injected exceptions
    exercise exactly the retry/breaker paths a real transient failure
    would.
    """

    def __init__(self, detail: str = "injected fault") -> None:
        super().__init__(detail)


class DeltaParityError(SemilightError):
    """A patched delta overlay diverged from a fresh rebuild.

    Raised by the incremental-maintenance oracles and tests when a
    fail/recover sequence that nets out to zero leaves masked edges
    behind, or when a patched overlay's materialization is not
    byte-identical to an overlay built fresh from the degraded network.
    Either means the in-place patching machinery corrupted the CSR.
    """


class SharedSegmentError(SemilightError):
    """A shared-memory CSR segment is malformed or was misused.

    Raised by :mod:`repro.shortestpath.shared` on bad magic/version,
    attach to a missing segment, unbalanced seqlock brackets, or a read
    that never stabilized against a writer.
    """


class ProtocolError(SemilightError):
    """A router-server wire frame violated the protocol.

    Base class for the framing errors in :mod:`repro.server.protocol`
    (bad magic, oversized length, truncation mid-frame, undecodable
    payload).  The connection that produced it cannot be trusted and is
    closed.
    """


class WorkerCrashError(TransientBackendError):
    """A router-server worker died while holding the request.

    Subclasses :class:`TransientBackendError`: the pool respawns the
    worker and the request had no side effects, so clients (and the
    existing :class:`~repro.faults.resilience.RetryPolicy`) may simply
    re-issue it.
    """


class RemoteRouterError(ServiceError):
    """The router server reported a non-retryable failure for a request."""


class CircuitOpenError(ServiceError):
    """The circuit breaker around the routing backend is open.

    The query was rejected *before* reaching the backend; callers should
    degrade (serve stale, fall back to a rebuild) or retry after
    ``retry_after`` seconds.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"routing backend circuit open; retry after {retry_after:.3f}s"
        )
        self.retry_after = retry_after
