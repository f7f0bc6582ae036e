"""Connection admission over the residual network.

:class:`SemilightpathProvisioner` admits each connection request by routing
an optimal semilightpath on the *residual* network — the original network
with currently occupied channels removed — then atomically reserving the
channels the path uses.  This is exactly the paper's motivating on-line
usage: "given the network conditions, a single optical wavelength may not
be available … because some of the resources are already occupied by
existing lightpaths", hence semilightpaths with conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.core.semilightpath import Semilightpath
from repro.exceptions import NoPathError, ReservationError
from repro.wdm.state import WavelengthState

if TYPE_CHECKING:  # pragma: no cover
    from repro.multicast.hierarchy import LightHierarchy
    from repro.multicast.splitters import SplitterMap
    from repro.service.service import RoutingService

__all__ = ["Connection", "MulticastConnection", "SemilightpathProvisioner"]

NodeId = Hashable


@dataclass(frozen=True)
class Connection:
    """A live admitted connection."""

    connection_id: int
    source: NodeId
    target: NodeId
    path: Semilightpath


@dataclass(frozen=True)
class MulticastConnection:
    """A live admitted one-to-many connection (a light-hierarchy)."""

    connection_id: int
    source: NodeId
    members: tuple[NodeId, ...]
    hierarchy: "LightHierarchy"


class SemilightpathProvisioner:
    """Admit/tear down connections using optimal semilightpath routing.

    Parameters
    ----------
    network:
        The full WDM network (capacities and cost structure).
    router_factory:
        Builds the router used per admission; defaults to
        :class:`~repro.core.routing.LiangShenRouter`.  Swappable so the
        blocking benchmarks can compare routers under identical traffic.
    packing:
        Wavelength tie-breaking among equal-cost routes:

        * ``"none"`` (default) — no preference,
        * ``"most-used"`` — prefer wavelengths already busy network-wide
          (packs the spectrum, classically lowers blocking),
        * ``"least-used"`` — prefer idle wavelengths (spreads load).

        Implemented as an infinitesimal cost perturbation on the residual
        network, far below the smallest real cost difference, so the set
        of cost-optimal routes is unchanged — only ties are broken.

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> prov = SemilightpathProvisioner(paper_figure1_network())
    >>> conn = prov.establish(1, 7)
    >>> prov.num_active
    1
    >>> prov.teardown(conn)
    >>> prov.num_active
    0
    """

    def __init__(
        self,
        network: WDMNetwork,
        router_factory: Callable[[WDMNetwork], object] | None = None,
        packing: str = "none",
    ) -> None:
        if packing not in ("none", "most-used", "least-used"):
            raise ValueError(
                f"packing must be 'none', 'most-used' or 'least-used', "
                f"got {packing!r}"
            )
        self.network = network
        self.state = WavelengthState(network)
        self.packing = packing
        self._router_factory = router_factory or LiangShenRouter
        self._ids = itertools.count(1)
        self._active: dict[int, Connection] = {}
        self._active_multicast: dict[int, MulticastConnection] = {}
        self._service: "RoutingService | None" = None

    @property
    def num_active(self) -> int:
        """Number of currently admitted connections."""
        return len(self._active)

    @property
    def service(self) -> "RoutingService | None":
        """The attached routing service, if any."""
        return self._service

    def attach_service(
        self, service: "RoutingService | None" = None, **service_kwargs
    ) -> "RoutingService":
        """Route admissions through an epoch-cached :class:`RoutingService`.

        Without arguments a service is built over this provisioner's
        residual network (``workers=0`` by default — admissions already
        run on the caller's thread); pass ``workers=N``/``queue_limit``
        through *service_kwargs*, or hand in a pre-built *service* whose
        network view is this provisioner's residual.

        Once attached, :meth:`establish` serves routes from the cache and
        notifies it after every reservation (the reserved channels are
        masked in place and the cached trees repaired) and release (full
        invalidation — freed channels can improve any route).
        """
        if service is None:
            # Imported lazily: the service layer sits *above* wdm, and the
            # provisioner must stay importable without it.
            from repro.service.service import RoutingService

            service_kwargs.setdefault("workers", 0)
            service = RoutingService(self.residual_network, **service_kwargs)
        self._service = service
        return service

    def detach_service(self) -> None:
        """Go back to per-admission router construction."""
        self._service = None

    def active_connections(self) -> list[Connection]:
        """Snapshot of live connections."""
        return list(self._active.values())

    def residual_network(self) -> WDMNetwork:
        """The network minus occupied channels.

        Channels held by live connections are simply absent from the
        residual ``Λ(e)`` sets — matching how the paper models
        unavailability (infinite weight == not a resource).
        """
        residual = WDMNetwork(
            self.network.num_wavelengths,
            default_conversion=self.network.conversion(self.network.nodes()[0])
            if self.network.num_nodes
            else None,
        )
        for node in self.network.nodes():
            residual.add_node(node, self.network.conversion(node))
        bias = self._packing_bias()
        for link in self.network.links():
            occupied = self.state.occupied_on(link.tail, link.head)
            costs = {
                w: c + bias.get(w, 0.0)
                for w, c in link.costs.items()
                if w not in occupied
            }
            residual.add_link(link.tail, link.head, costs)
        return residual

    def _packing_bias(self) -> dict[int, float]:
        """Infinitesimal per-wavelength cost nudges implementing *packing*.

        The perturbation budget (all nudges summed over the longest
        possible walk) stays below any real cost difference: epsilon is
        scaled by the smallest positive link cost divided by a generous
        walk-length bound.
        """
        if self.packing == "none":
            return {}
        usage = [0] * self.network.num_wavelengths
        for connection in self._active.values():
            for hop in connection.path.hops:
                usage[hop.wavelength] += 1
        for mconn in self._active_multicast.values():
            for _tail, _head, wavelength in mconn.hierarchy.channel_keys():
                usage[wavelength] += 1
        floor = self.network.min_link_cost()
        if not (0 < floor < float("inf")):
            floor = 1.0
        walk_bound = 4 * self.network.num_nodes * self.network.num_wavelengths + 4
        epsilon = floor / (walk_bound * (max(usage) + 1) * 1e3 + 1)
        if self.packing == "most-used":
            # Busier wavelengths get a *smaller* nudge: preferred on ties.
            return {
                w: epsilon * (max(usage) - count)
                for w, count in enumerate(usage)
            }
        return {w: epsilon * count for w, count in enumerate(usage)}

    def establish(self, source: NodeId, target: NodeId) -> Connection:
        """Admit a connection, reserving its channels.

        Raises :class:`~repro.exceptions.NoPathError` when the residual
        network cannot carry the request (the request is *blocked*).
        """
        if self._service is not None:
            path = self._service.route(source, target)
        else:
            residual = self.residual_network()
            router = self._router_factory(residual)
            path = router.route(source, target).path
        # Re-price the path on the full network (costs are identical — the
        # residual only removes channels — but the claimed total must refer
        # to the real network for auditability).
        path = Semilightpath(hops=path.hops, total_cost=path.evaluate_cost(self.network))
        self.state.reserve_path(path)
        if self._service is not None:
            if self.packing == "none":
                self._service.notify_reserved(path)
            else:
                # Packing re-biases *every* residual cost after each
                # admission, so per-channel degradation is not enough.
                self._service.invalidate()
        connection = Connection(
            connection_id=next(self._ids),
            source=source,
            target=target,
            path=path,
        )
        self._active[connection.connection_id] = connection
        return connection

    def admit_path(self, path: Semilightpath) -> Connection:
        """Admit a connection over a caller-supplied path.

        Used by restoration and planning tools that compute paths through
        their own logic; the channels are reserved atomically and the
        connection is tracked like any other.
        """
        self.state.reserve_path(path)
        if self._service is not None:
            if self.packing == "none":
                self._service.notify_reserved(path)
            else:
                self._service.invalidate()
        connection = Connection(
            connection_id=next(self._ids),
            source=path.source,
            target=path.target,
            path=path,
        )
        self._active[connection.connection_id] = connection
        return connection

    def teardown(self, connection: Connection) -> None:
        """Release a live connection's channels."""
        if connection.connection_id not in self._active:
            raise ReservationError(
                f"connection {connection.connection_id} is not active"
            )
        self.state.release_path(connection.path)
        del self._active[connection.connection_id]
        if self._service is not None:
            self._service.notify_released(connection.path)

    def try_establish(self, source: NodeId, target: NodeId) -> Connection | None:
        """Like :meth:`establish` but returns None on blocking."""
        try:
            return self.establish(source, target)
        except NoPathError:
            return None

    # -- multicast admissions -------------------------------------------------

    @property
    def num_active_multicast(self) -> int:
        """Number of currently admitted multicast connections."""
        return len(self._active_multicast)

    def active_multicast_connections(self) -> list[MulticastConnection]:
        """Snapshot of live multicast connections."""
        return list(self._active_multicast.values())

    def establish_multicast(
        self,
        source: NodeId,
        members: "tuple[NodeId, ...] | list[NodeId]",
        splitters: "SplitterMap | None" = None,
    ) -> MulticastConnection:
        """Admit a one-to-many connection as a light-hierarchy.

        The hierarchy is routed on the *residual* network (occupied
        channels absent) under the node splitter constraints, re-priced
        against the full network, and its channels reserved atomically —
        a conflicting reservation rolls the admission back without
        partial effect.  Raises
        :class:`~repro.exceptions.MulticastBlockedError` (a
        :class:`~repro.exceptions.NoPathError`) when the residual network
        cannot join every member.
        """
        # Imported lazily: multicast builds on core/verify and must stay
        # optional for unicast-only deployments of this module.
        from repro.multicast.hierarchy import LightHierarchy, MulticastRequest
        from repro.multicast.router import MulticastRouter

        request = MulticastRequest(source=source, members=tuple(members))
        residual = self.residual_network()
        router = MulticastRouter(residual, splitters=splitters)
        hierarchy = router.route(request).hierarchy
        # Re-price on the full network (packing bias off, real costs on).
        repriced_paths = {
            member: Semilightpath(
                hops=path.hops, total_cost=path.evaluate_cost(self.network)
            )
            for member, path in hierarchy.paths.items()
        }
        repriced = LightHierarchy(
            source=hierarchy.source,
            members=hierarchy.members,
            paths=repriced_paths,
        )
        hierarchy = LightHierarchy(
            source=repriced.source,
            members=repriced.members,
            paths=repriced.paths,
            total_cost=repriced.evaluate_cost(self.network),
        )
        channels = sorted(hierarchy.channel_keys(), key=repr)
        self.state.reserve_channels(channels)
        if self._service is not None:
            if self.packing == "none":
                # Per-channel removal, patched in place (same rule as
                # unicast).
                for tail, head, wavelength in channels:
                    self._service.notify_link_degraded(tail, head, wavelength)
            else:
                self._service.invalidate()
        connection = MulticastConnection(
            connection_id=next(self._ids),
            source=source,
            members=request.members,
            hierarchy=hierarchy,
        )
        self._active_multicast[connection.connection_id] = connection
        return connection

    def teardown_multicast(self, connection: MulticastConnection) -> None:
        """Release a live multicast connection's channels."""
        if connection.connection_id not in self._active_multicast:
            raise ReservationError(
                f"multicast connection {connection.connection_id} is not active"
            )
        self.state.release_channels(
            sorted(connection.hierarchy.channel_keys(), key=repr)
        )
        del self._active_multicast[connection.connection_id]
        if self._service is not None:
            # Freed channels can improve any cached route: full refresh.
            self._service.invalidate()

    def try_establish_multicast(
        self,
        source: NodeId,
        members: "tuple[NodeId, ...] | list[NodeId]",
        splitters: "SplitterMap | None" = None,
    ) -> MulticastConnection | None:
        """Like :meth:`establish_multicast` but returns None on blocking."""
        try:
            return self.establish_multicast(source, members, splitters=splitters)
        except NoPathError:  # MulticastBlockedError subclasses NoPathError
            return None
