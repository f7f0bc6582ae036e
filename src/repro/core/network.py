"""The WDM network model ``G = (V, E)`` (paper Section II).

A :class:`WDMNetwork` is a directed graph whose links each carry a set of
available wavelengths ``Λ(e) ⊆ Λ`` with per-wavelength costs ``w(e, λ)``,
and whose nodes each have a wavelength-conversion cost model
``c_v(λ_p, λ_q)``.

Node labels are arbitrary hashable objects (ints, strings, tuples); the
network maintains a stable dense integer index for each node, which the
auxiliary-graph builders use internally.

Wavelengths are 0-based integer indices into the universe of size
:attr:`WDMNetwork.num_wavelengths` (see :mod:`repro.core.wavelengths`).
An unavailable ``(link, wavelength)`` pair simply does not appear in the
link's cost table — the paper's "infinite weight" case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping

from repro._validation import check_positive_int
from repro.core.conversion import ConversionModel, FullConversion
from repro.core.wavelengths import check_wavelength
from repro.exceptions import (
    NetworkStructureError,
    UnknownLinkError,
    UnknownNodeError,
    WavelengthUnavailableError,
)

__all__ = ["Link", "WDMNetwork"]

NodeId = Hashable


@dataclass(frozen=True)
class Link:
    """One directed link with its available wavelengths and costs.

    ``costs`` maps each available wavelength (the set ``Λ(e)``) to the
    finite nonnegative cost ``w(e, λ)`` of using it on this link.
    """

    tail: NodeId
    head: NodeId
    costs: Mapping[int, float]

    @property
    def wavelengths(self) -> frozenset[int]:
        """The available-wavelength set ``Λ(e)``."""
        return frozenset(self.costs)

    def cost(self, wavelength: int) -> float:
        """``w(e, λ)``; ``math.inf`` when λ ∉ Λ(e)."""
        return self.costs.get(wavelength, math.inf)

    def __repr__(self) -> str:
        lams = ",".join(f"λ{w + 1}" for w in sorted(self.costs))
        return f"Link({self.tail!r}->{self.head!r}, {{{lams}}})"


class WDMNetwork:
    """Directed WDM network with per-link wavelength availability.

    Parameters
    ----------
    num_wavelengths:
        Size ``k`` of the wavelength universe ``Λ``.
    default_conversion:
        Conversion model assigned to nodes that are not given an explicit
        one via :meth:`set_conversion`.  Defaults to
        :class:`~repro.core.conversion.FullConversion` with unit cost.

    Example
    -------
    >>> net = WDMNetwork(num_wavelengths=2)
    >>> net.add_node("a"); net.add_node("b")
    >>> net.add_link("a", "b", {0: 1.0, 1: 2.5})
    Link('a'->'b', {λ1,λ2})
    >>> net.link_cost("a", "b", 1)
    2.5
    >>> sorted(net.available_wavelengths("a", "b"))
    [0, 1]
    """

    def __init__(
        self,
        num_wavelengths: int,
        default_conversion: ConversionModel | None = None,
    ) -> None:
        self._k = check_positive_int(num_wavelengths, "num_wavelengths")
        self._default_conversion = (
            default_conversion if default_conversion is not None else FullConversion(1.0)
        )
        self._index: dict[NodeId, int] = {}
        self._labels: list[NodeId] = []
        self._conversions: dict[NodeId, ConversionModel] = {}
        self._out: dict[NodeId, dict[NodeId, Link]] = {}
        self._in: dict[NodeId, dict[NodeId, Link]] = {}
        self._num_links = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node: NodeId, conversion: ConversionModel | None = None) -> None:
        """Add *node*; optionally give it a node-specific conversion model."""
        if node in self._index:
            raise NetworkStructureError(f"node already exists: {node!r}")
        self._index[node] = len(self._labels)
        self._labels.append(node)
        self._out[node] = {}
        self._in[node] = {}
        if conversion is not None:
            self._conversions[node] = conversion

    def add_nodes(self, nodes: Iterator[NodeId] | list[NodeId]) -> None:
        """Add several nodes with the default conversion model."""
        for node in nodes:
            self.add_node(node)

    def add_link(self, tail: NodeId, head: NodeId, costs: Mapping[int, float]) -> Link:
        """Add the directed link ``tail -> head``.

        *costs* maps each wavelength in ``Λ(e)`` to its finite nonnegative
        cost ``w(e, λ)``.  An empty mapping is allowed (a dark link no
        semilightpath can use).  Self-loops and duplicate links are
        rejected — the paper's ``G`` is a simple digraph (parallel capacity
        appears only in the derived multigraph ``G_M``).
        """
        self._check_node(tail)
        self._check_node(head)
        if tail == head:
            raise NetworkStructureError(f"self-loop not allowed at {tail!r}")
        if head in self._out[tail]:
            raise NetworkStructureError(f"duplicate link: {tail!r} -> {head!r}")
        table: dict[int, float] = {}
        for wavelength, cost in costs.items():
            check_wavelength(wavelength, self._k)
            c = float(cost)
            if math.isinf(c):
                continue  # infinite == unavailable == absent
            if c < 0 or c != c:
                raise NetworkStructureError(
                    f"w(e, λ) must be >= 0 and finite, got {cost!r} for "
                    f"link {tail!r} -> {head!r}, wavelength {wavelength}"
                )
            table[wavelength] = c
        link = Link(tail=tail, head=head, costs=table)
        self._out[tail][head] = link
        self._in[head][tail] = link
        self._num_links += 1
        return link

    def set_conversion(self, node: NodeId, conversion: ConversionModel) -> None:
        """Assign a conversion model to an existing node."""
        self._check_node(node)
        self._conversions[node] = conversion

    # -- size parameters (paper Section II) ---------------------------------

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._labels)

    @property
    def num_links(self) -> int:
        """``m = |E|``."""
        return self._num_links

    @property
    def num_wavelengths(self) -> int:
        """``k = |Λ|``."""
        return self._k

    def in_degree(self, node: NodeId) -> int:
        """``d_in(G, v)``."""
        self._check_node(node)
        return len(self._in[node])

    def out_degree(self, node: NodeId) -> int:
        """``d_out(G, v)``."""
        self._check_node(node)
        return len(self._out[node])

    @property
    def max_degree(self) -> int:
        """``d = max{d_in, d_out}`` over all nodes (0 for an empty graph)."""
        best = 0
        for node in self._labels:
            best = max(best, len(self._in[node]), len(self._out[node]))
        return best

    @property
    def max_link_wavelengths(self) -> int:
        """``k₀ = max_e |Λ(e)|`` — the Section IV restriction parameter."""
        best = 0
        for link in self.links():
            best = max(best, len(link.costs))
        return best

    @property
    def total_link_wavelengths(self) -> int:
        """``m₁ = Σ_e |Λ(e)|`` — the number of links of ``G_M``."""
        return sum(len(link.costs) for link in self.links())

    # -- queries -------------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        """Node labels in insertion order."""
        return list(self._labels)

    def has_node(self, node: NodeId) -> bool:
        """True when *node* exists."""
        return node in self._index

    def node_index(self, node: NodeId) -> int:
        """Stable dense integer index of *node* (insertion order)."""
        self._check_node(node)
        return self._index[node]

    def node_label(self, index: int) -> NodeId:
        """Inverse of :meth:`node_index`."""
        return self._labels[index]

    def links(self) -> Iterator[Link]:
        """Iterate every link (insertion order within each tail)."""
        for tail in self._labels:
            yield from self._out[tail].values()

    def has_link(self, tail: NodeId, head: NodeId) -> bool:
        """True when the directed link exists."""
        return tail in self._index and head in self._out[tail]

    def link(self, tail: NodeId, head: NodeId) -> Link:
        """The :class:`Link` ``tail -> head`` (raises if absent)."""
        self._check_node(tail)
        self._check_node(head)
        try:
            return self._out[tail][head]
        except KeyError:
            raise UnknownLinkError(tail, head) from None

    def out_links(self, node: NodeId) -> list[Link]:
        """``E_out(G, v)``."""
        self._check_node(node)
        return list(self._out[node].values())

    def in_links(self, node: NodeId) -> list[Link]:
        """``E_in(G, v)``."""
        self._check_node(node)
        return list(self._in[node].values())

    def successors(self, node: NodeId) -> list[NodeId]:
        """Heads of ``E_out(G, v)``."""
        self._check_node(node)
        return list(self._out[node])

    def predecessors(self, node: NodeId) -> list[NodeId]:
        """Tails of ``E_in(G, v)``."""
        self._check_node(node)
        return list(self._in[node])

    def available_wavelengths(self, tail: NodeId, head: NodeId) -> frozenset[int]:
        """``Λ(e)`` for the link ``tail -> head``."""
        return self.link(tail, head).wavelengths

    def link_cost(self, tail: NodeId, head: NodeId, wavelength: int) -> float:
        """``w(e, λ)``; raises when λ ∉ Λ(e)."""
        check_wavelength(wavelength, self._k)
        link = self.link(tail, head)
        cost = link.costs.get(wavelength)
        if cost is None:
            raise WavelengthUnavailableError(tail, head, wavelength)
        return cost

    @property
    def default_conversion(self) -> ConversionModel:
        """The model used by nodes without an explicit one."""
        return self._default_conversion

    def explicit_conversion(self, node: NodeId) -> ConversionModel | None:
        """The node-specific model set via :meth:`add_node`/:meth:`set_conversion`.

        ``None`` when the node falls back to :attr:`default_conversion` —
        callers rebuilding a network (serializers, the verification
        shrinker) use this to preserve the explicit/default distinction.
        """
        self._check_node(node)
        return self._conversions.get(node)

    def conversion(self, node: NodeId) -> ConversionModel:
        """The conversion model of *node*."""
        self._check_node(node)
        return self._conversions.get(node, self._default_conversion)

    def conversion_cost(self, node: NodeId, from_wavelength: int, to_wavelength: int) -> float:
        """``c_v(λ_p, λ_q)``; ``math.inf`` when unsupported."""
        check_wavelength(from_wavelength, self._k)
        check_wavelength(to_wavelength, self._k)
        return self.conversion(node).cost(from_wavelength, to_wavelength)

    # -- wavelength-set accessors used by the constructions ------------------

    def lambda_in(self, node: NodeId) -> frozenset[int]:
        """``Λ_in(G, v) = ⋃_{e ∈ E_in(v)} Λ(e)``."""
        result: set[int] = set()
        for link in self.in_links(node):
            result.update(link.costs)
        return frozenset(result)

    def lambda_out(self, node: NodeId) -> frozenset[int]:
        """``Λ_out(G, v) = ⋃_{e ∈ E_out(v)} Λ(e)``."""
        result: set[int] = set()
        for link in self.out_links(node):
            result.update(link.costs)
        return frozenset(result)

    def min_link_cost(self) -> float:
        """``min_{e, λ} w(e, λ)`` — Restriction 2's right-hand side.

        Returns ``math.inf`` for a network with no usable (link, wavelength)
        pair.
        """
        best = math.inf
        for link in self.links():
            for cost in link.costs.values():
                if cost < best:
                    best = cost
        return best

    # -- misc -----------------------------------------------------------------

    def copy(self) -> "WDMNetwork":
        """Deep-enough copy: fresh structure, shared immutable links and
        models (see :meth:`with_link_costs`)."""
        return self.with_link_costs({})

    def with_link_costs(
        self, tables: Mapping[tuple[NodeId, NodeId], Mapping[int, float]]
    ) -> "WDMNetwork":
        """Structural copy in which each link named in *tables* carries
        that cost table instead of its own.

        The copy keeps this network's nodes, link order (dark links
        included), default and per-node conversion models.  Every link
        not named in *tables* is this network's own :class:`Link`,
        shared rather than copied: a link is frozen, and nothing mutates
        its cost table in place.  Nothing is validated again, so each
        table must be one :meth:`add_link` would store — wavelengths of
        this network, finite nonnegative float costs.  The residual
        networks of :mod:`repro.wdm.provisioning` pass subsets of this
        network's tables, nudged by finite nonnegative amounts.
        """
        clone = WDMNetwork.__new__(WDMNetwork)
        clone._k = self._k
        clone._default_conversion = self._default_conversion
        clone._index = dict(self._index)
        clone._labels = list(self._labels)
        clone._conversions = dict(self._conversions)
        clone._out = {node: {} for node in self._labels}
        clone._in = {node: {} for node in self._labels}
        clone._num_links = self._num_links
        for tail, out in self._out.items():
            clone_out = clone._out[tail]
            for head, link in out.items():
                table = tables.get((tail, head))
                if table is not None:
                    link = Link(tail, head, table)
                clone_out[head] = link
                clone._in[head][tail] = link
        return clone

    def _check_node(self, node: NodeId) -> None:
        if node not in self._index:
            raise UnknownNodeError(node)

    def __repr__(self) -> str:
        return (
            f"WDMNetwork(n={self.num_nodes}, m={self.num_links}, "
            f"k={self._k})"
        )
