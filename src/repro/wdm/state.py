"""Per-(link, wavelength) occupancy state.

:class:`WavelengthState` tracks which wavelength channels are currently
held by live connections.  It is deliberately independent of any routing
policy: provisioners reserve and release through it, and it enforces the
two invariants that matter — no double-reservation and no release of a
channel that is not held.  Occupancy is kept per link, so asking what
one link holds costs O(|Λ(e)|) however many channels are reserved
elsewhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.semilightpath import Semilightpath
from repro.exceptions import ReservationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["WavelengthState"]

NodeId = Hashable
Channel = tuple[NodeId, NodeId, int]  # (tail, head, wavelength)


class WavelengthState:
    """Occupancy ledger over a network's wavelength channels.

    The ledger maps each link ``(tail, head)`` to the set of its
    wavelengths that live connections hold; a link none of whose
    channels was ever reserved has no entry.

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> state = WavelengthState(paper_figure1_network())
    >>> state.is_free(1, 2, 0)
    True
    >>> state.reserve_channels([(1, 2, 0)])
    >>> state.is_free(1, 2, 0)
    False
    """

    def __init__(self, network: "WDMNetwork") -> None:
        self.network = network
        self._occupied: dict[tuple[NodeId, NodeId], set[int]] = {}

    @property
    def num_occupied(self) -> int:
        """Number of currently reserved channels."""
        return sum(map(len, self._occupied.values()))

    @property
    def total_channels(self) -> int:
        """Total channels in the network (``Σ_e |Λ(e)|``)."""
        return self.network.total_link_wavelengths

    @property
    def utilization(self) -> float:
        """Fraction of channels currently reserved (0 for empty networks)."""
        total = self.total_channels
        return self.num_occupied / total if total else 0.0

    def is_free(self, tail: NodeId, head: NodeId, wavelength: int) -> bool:
        """True when the channel exists and is not reserved."""
        link = self.network.link(tail, head)
        if wavelength not in link.costs:
            return False
        return wavelength not in self._occupied.get((tail, head), ())

    def occupied_on(self, tail: NodeId, head: NodeId) -> frozenset[int]:
        """Wavelengths currently reserved on one link."""
        return frozenset(self._occupied.get((tail, head), ()))

    def occupied_channels(self) -> frozenset[Channel]:
        """Snapshot of every reserved ``(tail, head, wavelength)`` channel.

        A frozen copy, safe to hold across later reserves/releases —
        restoration and fault-injection tooling diff these snapshots to
        find which connections a failure touched.
        """
        return frozenset(
            (tail, head, wavelength)
            for (tail, head), held in self._occupied.items()
            for wavelength in held
        )

    def free_on(self, tail: NodeId, head: NodeId) -> frozenset[int]:
        """Available-and-free wavelengths on one link."""
        link = self.network.link(tail, head)
        held = self._occupied.get((tail, head), ())
        return frozenset(w for w in link.costs if w not in held)

    def reserve_channels(self, channels: Iterable[Channel]) -> None:
        """Atomically reserve *channels*; raises (without partial effect)
        if any is occupied or nonexistent."""
        wanted = list(channels)
        for tail, head, wavelength in wanted:
            link = self.network.link(tail, head)
            if wavelength not in link.costs:
                raise ReservationError(
                    f"channel λ{wavelength + 1} does not exist on "
                    f"{tail!r}->{head!r}"
                )
            if wavelength in self._occupied.get((tail, head), ()):
                raise ReservationError(
                    f"channel λ{wavelength + 1} on {tail!r}->{head!r} "
                    f"is already reserved"
                )
        seen: set[Channel] = set()
        for channel in wanted:
            if channel in seen:
                raise ReservationError(f"duplicate channel in request: {channel!r}")
            seen.add(channel)
        for tail, head, wavelength in wanted:
            self._occupied.setdefault((tail, head), set()).add(wavelength)

    def release_channels(self, channels: Iterable[Channel]) -> None:
        """Release previously reserved *channels*; raises on any not held."""
        wanted = list(channels)
        for channel in wanted:
            tail, head, wavelength = channel
            if wavelength not in self._occupied.get((tail, head), ()):
                raise ReservationError(f"channel not reserved: {channel!r}")
        for tail, head, wavelength in wanted:
            self._occupied[(tail, head)].discard(wavelength)

    def reserve_path(self, path: Semilightpath) -> None:
        """Reserve every channel a semilightpath uses."""
        self.reserve_channels(
            (hop.tail, hop.head, hop.wavelength) for hop in path.hops
        )

    def release_path(self, path: Semilightpath) -> None:
        """Release every channel a semilightpath uses."""
        self.release_channels(
            (hop.tail, hop.head, hop.wavelength) for hop in path.hops
        )
