"""The paper's auxiliary-graph constructions (Section III-A and Corollary 1).

Liang & Shen reduce optimal semilightpath routing to a plain shortest-path
query through a chain of transformations:

1. **``G_M``** — the directed multigraph with one parallel link per
   available wavelength on each physical link (``m₁ = Σ_e |Λ(e)|`` links).
2. **``G_v``** — per node, a weighted bipartite graph: left side ``X_v`` has
   one node per wavelength in ``Λ_in(G_M, v)``, right side ``Y_v`` one node
   per wavelength in ``Λ_out(G_M, v)``; an edge ``(v,λ) → (v,λ')`` exists
   when ``λ = λ'`` (weight 0) or the conversion ``λ → λ'`` is supported at
   ``v`` (weight ``c_v(λ, λ')``).
3. **``G'``** — the union of all ``G_v`` plus the *original* edges
   ``E_org``: for each ``G_M`` link ``u → v`` on wavelength ``λ``, an edge
   from ``(u, λ) ∈ Y_u`` to ``(v, λ) ∈ X_v`` with weight ``w(⟨u,v⟩, λ)``.
4. **``G_{s,t}``** — ``G'`` plus a virtual source ``s'`` (zero-weight edges
   to every node of ``Y_s``) and a virtual sink ``t''`` (zero-weight edges
   from every node of ``X_t``).  A shortest ``s' → t''`` path maps 1-to-1
   onto an optimal semilightpath.
5. **``G_all``** — for Corollary 1: ``G'`` plus *per-node* virtual
   terminals ``v'`` / ``v''`` for every node, enabling all-pairs queries
   with ``n`` shortest-path-tree runs.

Auxiliary-graph nodes are described by :class:`AuxNode`; decoding a
shortest path back into a :class:`~repro.core.semilightpath.Semilightpath`
lives in :mod:`repro.core.routing`.

Size accounting (:class:`AuxiliarySizes`) records the exact measured sizes
next to the paper's bounds from Observations 1-5 so that tests and the
``bench_construction`` benchmark can verify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator, NamedTuple

from repro.exceptions import UnknownNodeError
from repro.shortestpath.structures import GraphBuilder, StaticGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "AuxNode",
    "AuxiliarySizes",
    "LayeredGraph",
    "RoutingGraph",
    "AllPairsGraph",
    "multigraph_edges",
    "build_layered_graph",
    "build_routing_graph",
    "build_all_pairs_graph",
]

NodeId = Hashable

#: AuxNode.kind values
KIND_IN = "in"  #: a node of X_v — wavelength λ arriving at v
KIND_OUT = "out"  #: a node of Y_v — wavelength λ leaving v
KIND_SOURCE = "source"  #: a virtual source terminal (s' or v')
KIND_SINK = "sink"  #: a virtual sink terminal (t'' or v'')


class AuxNode(NamedTuple):
    """Descriptor of one auxiliary-graph node.

    ``kind`` is one of ``"in"`` (``X_v`` side), ``"out"`` (``Y_v`` side),
    ``"source"`` (a virtual ``v'``), ``"sink"`` (a virtual ``v''``).
    ``wavelength`` is ``-1`` for virtual terminals.
    """

    kind: str
    node: NodeId
    wavelength: int

    def label(self) -> str:
        """Readable label matching the paper's ``(v, λ_j)`` notation."""
        if self.kind == KIND_SOURCE:
            return f"{self.node}'"
        if self.kind == KIND_SINK:
            return f"{self.node}''"
        side = "X" if self.kind == KIND_IN else "Y"
        return f"({self.node},λ{self.wavelength + 1}):{side}"


def multigraph_edges(network: "WDMNetwork") -> Iterator[tuple[NodeId, NodeId, int, float]]:
    """Yield the links of ``G_M``: ``(u, v, wavelength, weight)``.

    One entry per physical link per available wavelength —
    ``m₁ = Σ_e |Λ(e)|`` entries in total.
    """
    for link in network.links():
        for wavelength in sorted(link.costs):
            yield link.tail, link.head, wavelength, link.costs[wavelength]


@dataclass(frozen=True)
class AuxiliarySizes:
    """Measured auxiliary-graph sizes with the paper's bounds.

    Attributes mirror Observations 1-5: for each quantity the ``*_bound``
    field is the closed-form upper bound the paper proves; tests assert
    ``value <= bound``.
    """

    n: int
    m: int
    k: int
    k0: int
    d: int
    m1: int  #: |E_M| = Σ|Λ(e)|
    num_layer_nodes: int  #: |V'|
    num_layer_edges: int  #: |E'|
    num_org_edges: int  #: |E_org|
    num_conversion_edges: int  #: Σ_v |E_v|
    max_bipartite_nodes: int  #: max_v (|X_v| + |Y_v|)
    max_bipartite_edges: int  #: max_v |E_v|

    @property
    def bound_layer_nodes(self) -> int:
        """Observation 2: ``|V'| <= 2kn``."""
        return 2 * self.k * self.n

    @property
    def bound_layer_nodes_restricted(self) -> int:
        """Observation 5, corrected: ``|V'| <= 2·m·k₀`` (restricted regime).

        The paper states ``|V'| <= Σ_e |Λ(e)| <= mk₀``, but
        ``Σ_v |Λ_in(G_M, v)| <= Σ_e |Λ(e)|`` and
        ``Σ_v |Λ_out(G_M, v)| <= Σ_e |Λ(e)|`` hold *separately*, so their
        sum is bounded by ``2·Σ_e |Λ(e)| <= 2mk₀``.  The paper's own
        Figure 1 example already exceeds the uncorrected bound
        (``|V'| = 36 > mk₀ = 33``); the factor-2 slip does not affect any
        asymptotic claim.
        """
        return 2 * self.m * self.k0

    @property
    def bound_layer_edges(self) -> int:
        """Observation 2: ``|E'| <= k²n + km``."""
        return self.k * self.k * self.n + self.k * self.m

    @property
    def bound_layer_edges_restricted(self) -> int:
        """Observation 5: ``|E'| <= d²nk₀² + mk₀``."""
        return self.d * self.d * self.n * self.k0 * self.k0 + self.m * self.k0

    @property
    def bound_bipartite_nodes(self) -> int:
        """Observation 1: ``|X_v| + |Y_v| <= 2k``."""
        return 2 * self.k

    @property
    def bound_bipartite_nodes_restricted(self) -> int:
        """Observation 4: ``|X_v| + |Y_v| <= 2dk₀``."""
        return 2 * self.d * self.k0

    @property
    def bound_bipartite_edges(self) -> int:
        """Observation 1: ``|E_v| <= k²``."""
        return self.k * self.k

    @property
    def bound_bipartite_edges_restricted(self) -> int:
        """Observation 4: ``|E_v| <= d²k₀²``."""
        return self.d * self.d * self.k0 * self.k0

    @property
    def bound_org_edges(self) -> int:
        """``|E_org| = m₁ <= km``."""
        return self.k * self.m

    def within_bounds(self) -> bool:
        """True when every measured size respects its Observation bound."""
        return (
            self.num_layer_nodes <= self.bound_layer_nodes
            and self.num_layer_edges <= self.bound_layer_edges
            and self.max_bipartite_nodes <= self.bound_bipartite_nodes
            and self.max_bipartite_edges <= self.bound_bipartite_edges
            and self.num_org_edges <= self.bound_org_edges
            and self.num_layer_nodes <= self.bound_layer_nodes_restricted
            and self.num_layer_edges <= self.bound_layer_edges_restricted
            and self.max_bipartite_nodes <= self.bound_bipartite_nodes_restricted
            and self.max_bipartite_edges <= self.bound_bipartite_edges_restricted
        )


class LayeredGraph:
    """The layered graph ``G'`` with its decode tables.

    Attributes
    ----------
    graph:
        The :class:`StaticGraph` over dense auxiliary ids.
    decode:
        ``decode[aux_id]`` is the :class:`AuxNode` descriptor.
    x_ids / y_ids:
        ``x_ids[(v, λ)]`` / ``y_ids[(v, λ)]`` map back to auxiliary ids for
        the ``X_v`` / ``Y_v`` sides.
    x_by_node / y_by_node:
        ``x_by_node[v]`` / ``y_by_node[v]`` list the auxiliary ids of
        ``X_v`` / ``Y_v`` in increasing-λ order (absent when empty).
        These index tables make per-node seeding O(|Y_v|) — the overlay
        single-pair query path seeds Dijkstra from ``y_by_node[s]`` and
        terminates on the min over ``x_by_node[t]``.
    """

    def __init__(
        self,
        network: "WDMNetwork",
        graph: StaticGraph,
        decode: list[AuxNode],
        x_ids: dict[tuple[NodeId, int], int],
        y_ids: dict[tuple[NodeId, int], int],
        sizes: AuxiliarySizes,
    ) -> None:
        self.network = network
        self.graph = graph
        self.decode = decode
        self.x_ids = x_ids
        self.y_ids = y_ids
        self.sizes = sizes
        # Insertion order of x_ids/y_ids is node order then sorted λ, so
        # per-node appends come out sorted by wavelength.
        x_by_node: dict[NodeId, list[int]] = {}
        for (v, _lam), aid in x_ids.items():
            x_by_node.setdefault(v, []).append(aid)
        y_by_node: dict[NodeId, list[int]] = {}
        for (v, _lam), aid in y_ids.items():
            y_by_node.setdefault(v, []).append(aid)
        self.x_by_node = x_by_node
        self.y_by_node = y_by_node

    def bipartite_nodes(self, node: NodeId) -> tuple[list[int], list[int]]:
        """Auxiliary ids of ``X_v`` and ``Y_v`` for *node* (sorted by λ).

        O(|X_v| + |Y_v|) via the per-node index tables (the lists are
        copied so callers cannot corrupt the tables).
        """
        return list(self.x_by_node.get(node, ())), list(self.y_by_node.get(node, ()))


class RoutingGraph(LayeredGraph):
    """``G_{s,t}``: the layered graph plus virtual terminals ``s'``, ``t''``."""

    def __init__(self, source: NodeId, target: NodeId, source_id: int, sink_id: int, **kw) -> None:
        super().__init__(**kw)
        self.source = source
        self.target = target
        self.source_id = source_id
        self.sink_id = sink_id


class AllPairsGraph(LayeredGraph):
    """``G_all``: the layered graph plus ``v'`` / ``v''`` for every node."""

    def __init__(
        self,
        source_ids: dict[NodeId, int],
        sink_ids: dict[NodeId, int],
        **kw,
    ) -> None:
        super().__init__(**kw)
        self.source_ids = source_ids
        self.sink_ids = sink_ids


def _emit_layered(
    network: "WDMNetwork",
    extra_nodes: int,
) -> tuple[GraphBuilder, list[AuxNode], dict, dict, dict[str, int]]:
    """Shared construction of ``G'``'s nodes and edges.

    One pass over the links gathers every node's ``Λ_in`` / ``Λ_out``
    (of ``G_M`` == of ``G``); each node's sets are then sorted and
    numbered once, and its edges go to the builder in bulk, in the same
    order a per-edge emission would use: every node's conversion edges
    ``E_v`` in node order, then ``E_org`` in multigraph order.  Reserves
    room for *extra_nodes* virtual terminals (added by the caller
    afterwards).  Returns the builder, decode list, the ``x_ids`` /
    ``y_ids`` maps, and raw size counters.
    """
    nodes = network.nodes()
    links = list(network.links())
    lam_in: dict[NodeId, set[int]] = {v: set() for v in nodes}
    lam_out: dict[NodeId, set[int]] = {v: set() for v in nodes}
    for link in links:
        lam_out[link.tail].update(link.costs)
        lam_in[link.head].update(link.costs)

    # Pass 1: enumerate X_v / Y_v node sets; x_of[v] / y_of[v] map each
    # wavelength of Λ_in(v) / Λ_out(v) to its auxiliary id.
    decode: list[AuxNode] = []
    ins: dict[NodeId, list[int]] = {}
    outs: dict[NodeId, list[int]] = {}
    x_of: dict[NodeId, dict[int, int]] = {}
    y_of: dict[NodeId, dict[int, int]] = {}
    for v in nodes:
        ins[v] = lams = sorted(lam_in[v])
        x_of[v] = dict(zip(lams, range(len(decode), len(decode) + len(lams))))
        decode.extend([AuxNode(KIND_IN, v, lam) for lam in lams])
        outs[v] = lams = sorted(lam_out[v])
        y_of[v] = dict(zip(lams, range(len(decode), len(decode) + len(lams))))
        decode.extend([AuxNode(KIND_OUT, v, lam) for lam in lams])
    x_ids = {(v, lam): aid for v, ids in x_of.items() for lam, aid in ids.items()}
    y_ids = {(v, lam): aid for v, ids in y_of.items() for lam, aid in ids.items()}

    tails: list[int] = []
    heads: list[int] = []
    weights: list[float] = []

    # Pass 2: conversion edges E_v inside each bipartite graph G_v.
    max_bip_nodes = 0
    max_bip_edges = 0
    for v in nodes:
        max_bip_nodes = max(max_bip_nodes, len(ins[v]) + len(outs[v]))
        pairs = list(network.conversion(v).finite_pairs(ins[v], outs[v]))
        if pairs:
            ps, qs, costs = zip(*pairs)
            tails.extend(map(x_of[v].__getitem__, ps))
            heads.extend(map(y_of[v].__getitem__, qs))
            weights.extend(costs)
        max_bip_edges = max(max_bip_edges, len(pairs))
    num_conversion_edges = len(tails)

    # Pass 3: original edges E_org from the multigraph G_M.
    max_link_wavelengths = 0
    for link in links:
        lams = sorted(link.costs)
        tails.extend(map(y_of[link.tail].__getitem__, lams))
        heads.extend(map(x_of[link.head].__getitem__, lams))
        weights.extend(map(link.costs.__getitem__, lams))
        max_link_wavelengths = max(max_link_wavelengths, len(lams))

    builder = GraphBuilder(len(decode) + extra_nodes)
    builder.add_edges(tails, heads, weights)
    counters = {
        "num_conversion_edges": num_conversion_edges,
        "num_org_edges": len(tails) - num_conversion_edges,
        "max_bipartite_nodes": max_bip_nodes,
        "max_bipartite_edges": max_bip_edges,
        "num_layer_nodes": len(decode),
        "max_link_wavelengths": max_link_wavelengths,
    }
    return builder, decode, x_ids, y_ids, counters


def _sizes(network: "WDMNetwork", counters: dict[str, int]) -> AuxiliarySizes:
    # |E_org| = m₁ = Σ_e |Λ(e)|: one original edge per G_M link.
    return AuxiliarySizes(
        n=network.num_nodes,
        m=network.num_links,
        k=network.num_wavelengths,
        k0=counters["max_link_wavelengths"],
        d=network.max_degree,
        m1=counters["num_org_edges"],
        num_layer_nodes=counters["num_layer_nodes"],
        num_layer_edges=counters["num_conversion_edges"] + counters["num_org_edges"],
        num_org_edges=counters["num_org_edges"],
        num_conversion_edges=counters["num_conversion_edges"],
        max_bipartite_nodes=counters["max_bipartite_nodes"],
        max_bipartite_edges=counters["max_bipartite_edges"],
    )


def build_layered_graph(network: "WDMNetwork") -> LayeredGraph:
    """Construct ``G' = (V', E', ω₂)`` (paper Observations 2-3).

    Runs in ``O(k²n + km)`` time and space (``O(d²nk₀² + mk₀)`` in the
    restricted regime) — one pass to enumerate bipartite nodes, one to emit
    conversion edges, one to emit ``E_org``.
    """
    builder, decode, x_ids, y_ids, counters = _emit_layered(network, extra_nodes=0)
    return LayeredGraph(
        network=network,
        graph=builder.build(),
        decode=decode,
        x_ids=x_ids,
        y_ids=y_ids,
        sizes=_sizes(network, counters),
    )


def build_routing_graph(network: "WDMNetwork", source: NodeId, target: NodeId) -> RoutingGraph:
    """Construct ``G_{s,t}`` for a single-pair query (Theorem 1 setup).

    Adds a virtual source ``s'`` with zero-weight edges to all of ``Y_s``
    and a virtual sink ``t''`` with zero-weight edges from all of ``X_t``.
    ``source == target`` is rejected — a semilightpath has at least one
    link.
    """
    if not network.has_node(source):
        raise UnknownNodeError(source)
    if not network.has_node(target):
        raise UnknownNodeError(target)
    if source == target:
        raise ValueError("source and target must differ")

    builder, decode, x_ids, y_ids, counters = _emit_layered(network, extra_nodes=2)
    source_id = len(decode)
    sink_id = len(decode) + 1
    decode = decode + [AuxNode(KIND_SOURCE, source, -1), AuxNode(KIND_SINK, target, -1)]

    seeds = [aux for (v, _lam), aux in y_ids.items() if v == source]
    sinks = [aux for (v, _lam), aux in x_ids.items() if v == target]
    builder.add_edges([source_id] * len(seeds), seeds, [0.0] * len(seeds))
    builder.add_edges(sinks, [sink_id] * len(sinks), [0.0] * len(sinks))

    return RoutingGraph(
        source=source,
        target=target,
        source_id=source_id,
        sink_id=sink_id,
        network=network,
        graph=builder.build(),
        decode=decode,
        x_ids=x_ids,
        y_ids=y_ids,
        sizes=_sizes(network, counters),
    )


def build_all_pairs_graph(network: "WDMNetwork") -> AllPairsGraph:
    """Construct ``G_all`` (Corollary 1 setup).

    Every node ``v`` gains virtual terminals ``v'`` (zero-weight edges into
    ``Y_v``) and ``v''`` (zero-weight edges out of ``X_v``); one
    shortest-path tree rooted at each ``v'`` then answers all ``n - 1``
    queries out of ``v``.
    """
    num_real = network.num_nodes
    builder, decode, x_ids, y_ids, counters = _emit_layered(
        network, extra_nodes=2 * num_real
    )
    source_ids: dict[NodeId, int] = {}
    sink_ids: dict[NodeId, int] = {}
    next_id = len(decode)
    for v in network.nodes():
        source_ids[v] = next_id
        decode.append(AuxNode(KIND_SOURCE, v, -1))
        next_id += 1
        sink_ids[v] = next_id
        decode.append(AuxNode(KIND_SINK, v, -1))
        next_id += 1

    builder.add_edges(
        [source_ids[v] for v, _lam in y_ids], y_ids.values(), [0.0] * len(y_ids)
    )
    builder.add_edges(
        x_ids.values(), [sink_ids[v] for v, _lam in x_ids], [0.0] * len(x_ids)
    )

    return AllPairsGraph(
        source_ids=source_ids,
        sink_ids=sink_ids,
        network=network,
        graph=builder.build(),
        decode=decode,
        x_ids=x_ids,
        y_ids=y_ids,
        sizes=_sizes(network, counters),
    )
