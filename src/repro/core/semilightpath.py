"""Semilightpath objects and their cost (paper Eq. 1).

A semilightpath is a directed *walk* ``e₁ … e_l`` through the network with a
wavelength chosen per link; wavelength changes at intermediate nodes incur
conversion costs.  Walks (not just simple paths) are the correct domain:
the paper's Figs. 5-6 show an optimal semilightpath that revisits a node,
which only Restrictions 1-2 rule out (Theorem 2).

The cost decomposition:

```
C(P) = Σᵢ w(eᵢ, λᵢ)  +  Σᵢ c_{head(eᵢ)}(λᵢ, λᵢ₊₁)
```

is implemented in :meth:`Semilightpath.evaluate_cost` *independently* of the
routers, so tests can cross-check a router's claimed optimum against a
ground-truth evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterator, Sequence

from repro.exceptions import InvalidPathError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.network import WDMNetwork

__all__ = ["Hop", "Conversion", "Semilightpath"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class Hop:
    """One link traversal: the link ``tail -> head`` on *wavelength*."""

    tail: NodeId
    head: NodeId
    wavelength: int

    def __repr__(self) -> str:
        return f"{self.tail!r}-[λ{self.wavelength + 1}]->{self.head!r}"


@dataclass(frozen=True)
class Conversion:
    """A converter setting: at *node*, switch ``from_wavelength -> to_wavelength``."""

    node: NodeId
    from_wavelength: int
    to_wavelength: int

    def __repr__(self) -> str:
        return (
            f"Conversion({self.node!r}: λ{self.from_wavelength + 1}"
            f"->λ{self.to_wavelength + 1})"
        )


@dataclass(frozen=True, slots=True)
class Semilightpath:
    """A wavelength-annotated walk plus its (claimed) total cost.

    Instances are typically produced by a router; ``total_cost`` is the
    router's claim and :meth:`evaluate_cost` recomputes it from first
    principles.  The structural walk invariants (consecutive hops chain) are
    checked at construction; network-dependent validity (wavelength
    availability, conversion support) is checked by :meth:`validate`.
    """

    hops: tuple[Hop, ...]
    total_cost: float = field(default=math.nan)

    def __post_init__(self) -> None:
        if not self.hops:
            raise InvalidPathError("a semilightpath must contain at least one hop")
        for i in range(len(self.hops) - 1):
            if self.hops[i].head != self.hops[i + 1].tail:
                raise InvalidPathError(
                    f"hop {i} ends at {self.hops[i].head!r} but hop {i + 1} "
                    f"starts at {self.hops[i + 1].tail!r}"
                )

    # -- structure ----------------------------------------------------------

    @property
    def source(self) -> NodeId:
        """First node of the walk."""
        return self.hops[0].tail

    @property
    def target(self) -> NodeId:
        """Last node of the walk."""
        return self.hops[-1].head

    @property
    def num_hops(self) -> int:
        """Number of links traversed (``l``)."""
        return len(self.hops)

    def nodes(self) -> list[NodeId]:
        """The node sequence, length ``l + 1`` (repeats possible)."""
        result = [self.hops[0].tail]
        result.extend(h.head for h in self.hops)
        return result

    def wavelengths(self) -> list[int]:
        """Wavelength used on each hop, in order."""
        return [h.wavelength for h in self.hops]

    def conversions(self) -> list[Conversion]:
        """Converter settings at intermediate nodes, in path order.

        Only *actual* switches are included (consecutive hops on different
        wavelengths); staying on the same wavelength needs no converter.
        """
        result = []
        for i in range(len(self.hops) - 1):
            a, b = self.hops[i], self.hops[i + 1]
            if a.wavelength != b.wavelength:
                result.append(
                    Conversion(
                        node=a.head,
                        from_wavelength=a.wavelength,
                        to_wavelength=b.wavelength,
                    )
                )
        return result

    @property
    def num_conversions(self) -> int:
        """Number of wavelength switches along the walk."""
        return sum(
            1
            for i in range(len(self.hops) - 1)
            if self.hops[i].wavelength != self.hops[i + 1].wavelength
        )

    @property
    def is_lightpath(self) -> bool:
        """True when a single wavelength is used end-to-end (no conversion)."""
        return self.num_conversions == 0

    @property
    def is_node_simple(self) -> bool:
        """True when no node appears twice in the walk (Theorem 2 regime)."""
        seen = set()
        for node in self.nodes():
            if node in seen:
                return False
            seen.add(node)
        return True

    def __iter__(self) -> Iterator[Hop]:
        return iter(self.hops)

    def __len__(self) -> int:
        return len(self.hops)

    # -- cost & validity ------------------------------------------------------

    def evaluate_cost(self, network: "WDMNetwork") -> float:
        """Recompute Eq. (1) from the network's cost structure.

        Raises the appropriate exception from :mod:`repro.exceptions` when
        the walk uses an unavailable wavelength or an unsupported
        conversion; returns the exact total otherwise.
        """
        total = 0.0
        for hop in self.hops:
            total += network.link_cost(hop.tail, hop.head, hop.wavelength)
        for i in range(len(self.hops) - 1):
            a, b = self.hops[i], self.hops[i + 1]
            c = network.conversion_cost(a.head, a.wavelength, b.wavelength)
            if math.isinf(c):
                from repro.exceptions import ConversionError

                raise ConversionError(a.head, a.wavelength, b.wavelength)
            total += c
        return total

    def validate(self, network: "WDMNetwork") -> None:
        """Raise unless the walk is realizable on *network*.

        Checks that every hop's link exists and offers the hop's wavelength,
        and that every wavelength switch is supported by the node's
        conversion model.  Also verifies the claimed ``total_cost`` when it
        is not NaN (within float tolerance).
        """
        actual = self.evaluate_cost(network)
        if not math.isnan(self.total_cost) and not math.isclose(
            actual, self.total_cost, rel_tol=1e-9, abs_tol=1e-9
        ):
            raise InvalidPathError(
                f"claimed cost {self.total_cost!r} != evaluated cost {actual!r}"
            )

    # -- construction helpers ---------------------------------------------------

    @staticmethod
    def from_sequence(
        nodes: Sequence[NodeId],
        wavelengths: Sequence[int],
        network: "WDMNetwork | None" = None,
    ) -> "Semilightpath":
        """Build a path from a node sequence and per-hop wavelengths.

        ``len(wavelengths)`` must equal ``len(nodes) - 1``.  When *network*
        is given, the claimed cost is evaluated from it; otherwise it is
        left NaN.
        """
        if len(nodes) < 2:
            raise InvalidPathError("need at least two nodes")
        if len(wavelengths) != len(nodes) - 1:
            raise InvalidPathError(
                f"need exactly {len(nodes) - 1} wavelengths, got {len(wavelengths)}"
            )
        hops = tuple(
            Hop(tail=nodes[i], head=nodes[i + 1], wavelength=wavelengths[i])
            for i in range(len(nodes) - 1)
        )
        path = Semilightpath(hops=hops)
        if network is not None:
            path = Semilightpath(hops=hops, total_cost=path.evaluate_cost(network))
        return path

    def __repr__(self) -> str:
        route = " ".join(repr(h) for h in self.hops)
        cost = "nan" if math.isnan(self.total_cost) else f"{self.total_cost:g}"
        return f"Semilightpath({route}, cost={cost})"
