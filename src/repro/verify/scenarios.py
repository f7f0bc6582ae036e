"""Seeded random verification scenarios.

A :class:`Scenario` is everything one differential-harness run needs: a
concrete :class:`~repro.core.network.WDMNetwork` plus an ordered query set.
:func:`random_scenario` draws one from a seed, sweeping the axes the paper
analyzes — topology family (sparse WAN regimes plus the dense one where
CFZ's bound is tight), wavelength availability (full ``Λ``, i.i.d. coins,
``k₀``-bounded subsets including dark links), converter cost model
(full/flat, none, limited-range, adversarial matrix), and link costs.

Determinism is absolute: the same seed yields the same scenario on every
platform, so a failure report is reproducible from its seed alone and the
golden corpus stores scenarios only as a convenience for post-fix replay.

Link costs are drawn from a quarter-integer lattice rather than arbitrary
floats.  All backends accumulate Eq. (1) in (potentially) different
association orders; lattice costs keep genuinely-equal optima bit-equal in
practice and make shrunk counterexamples readable, while still exercising
non-uniform weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Hashable

from repro.core.conversion import (
    ConversionModel,
    FixedCostConversion,
    FullConversion,
    MatrixConversion,
    NoConversion,
    RangeLimitedConversion,
)
from repro.core.network import WDMNetwork
from repro.io.serialization import network_from_json, network_to_json
from repro.topology.generators import (
    complete_network,
    degree_bounded_network,
    line_network,
    random_sparse_network,
    ring_network,
)
from repro.topology.wavelength_assign import (
    all_wavelengths,
    bounded_random_wavelengths,
    random_wavelengths,
)

__all__ = [
    "Scenario",
    "ScenarioLimits",
    "network_is_chain_free",
    "random_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
]

NodeId = Hashable

#: JSON schema version for serialized scenarios (see :mod:`repro.verify.corpus`).
SCENARIO_FORMAT = 1

TOPOLOGY_FAMILIES = ("line", "ring", "degree-bounded", "sparse", "complete")
CONVERSION_KINDS = ("full", "none", "zero", "range", "matrix")
AVAILABILITY_KINDS = ("all", "random", "bounded")


@dataclass(frozen=True)
class Scenario:
    """One differential-verification work item.

    ``queries`` are ordered ``(source, target)`` pairs with distinct
    endpoints.  ``seed`` is the generator seed (``None`` for hand-built or
    shrunk scenarios); ``description`` summarizes the drawn axes.
    """

    network: WDMNetwork
    queries: tuple[tuple[NodeId, NodeId], ...]
    seed: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        for source, target in self.queries:
            if source == target:
                raise ValueError(f"query endpoints must differ: {source!r}")
            if not self.network.has_node(source) or not self.network.has_node(target):
                raise ValueError(f"query off the network: {source!r} -> {target!r}")

    @property
    def chain_free(self) -> bool:
        """True when every conversion model is safe for CFZ comparison."""
        return network_is_chain_free(self.network)

    # -- the repro.verify.shrink.Shrinkable protocol -------------------------

    @property
    def items(self) -> tuple[tuple[NodeId, NodeId], ...]:
        return self.queries

    def with_items(self, queries: tuple[tuple[NodeId, NodeId], ...]) -> "Scenario":
        return replace(self, queries=queries)

    def pinned_nodes(self) -> set[NodeId]:
        return {node for query in self.queries for node in query}

    def size(self) -> tuple[int, ...]:
        return (len(self.queries),)

    def shrink_passes(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return (
            f"Scenario(n={self.network.num_nodes}, m={self.network.num_links}, "
            f"k={self.network.num_wavelengths}, queries={len(self.queries)}, "
            f"seed={self.seed!r})"
        )


@dataclass(frozen=True)
class ScenarioLimits:
    """Size envelope for :func:`random_scenario` (small by design: the
    harness runs every oracle, including brute force, per query)."""

    min_nodes: int = 3
    max_nodes: int = 9
    max_wavelengths: int = 4
    max_queries: int = 6

    def __post_init__(self) -> None:
        if self.min_nodes < 2:
            raise ValueError("min_nodes must be >= 2")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        if self.max_wavelengths < 1 or self.max_queries < 1:
            raise ValueError("max_wavelengths and max_queries must be >= 1")


def network_is_chain_free(network: WDMNetwork) -> bool:
    """True when no conversion model can make CFZ's chained conversions
    cheaper (or further-reaching) than Eq. (1)'s single direct conversion.

    Flat-cost full conversion and no-conversion qualify; limited-range and
    arbitrary matrix models do not (see
    :mod:`repro.baseline.wavelength_graph`).  Callable-cost models are
    conservatively treated as unsafe.
    """
    models: list[ConversionModel] = [network.default_conversion]
    for node in network.nodes():
        explicit = network.explicit_conversion(node)
        if explicit is not None:
            models.append(explicit)
    for model in models:
        if isinstance(model, NoConversion):
            continue
        if isinstance(model, FullConversion) and model._fn is None:
            continue  # flat cost: a 2-chain costs 2c >= c, support is total
        return False
    return True


def _lattice_cost(rng: random.Random) -> float:
    """A cost from the quarter-integer lattice ``{0.25, 0.5, ..., 4.0}``."""
    return rng.randint(1, 16) * 0.25


def _draw_conversion(
    rng: random.Random, k: int
) -> tuple[str, ConversionModel]:
    kind = rng.choice(CONVERSION_KINDS)
    if kind == "none":
        return kind, NoConversion()
    if kind == "zero":
        return kind, FixedCostConversion(0.0)
    if kind == "range":
        limit = rng.randint(0, max(0, k - 1))
        return kind, RangeLimitedConversion(limit, cost_per_step=rng.randint(0, 4) * 0.25)
    if kind == "matrix":
        table: dict[tuple[int, int], float] = {}
        for p in range(k):
            for q in range(k):
                if p != q and rng.random() < 0.6:
                    table[(p, q)] = _lattice_cost(rng)
        return kind, MatrixConversion(table)
    return kind, FixedCostConversion(_lattice_cost(rng))


def _draw_availability(rng: random.Random, k: int):
    kind = rng.choice(AVAILABILITY_KINDS)
    if kind == "all":
        return kind, all_wavelengths(k)
    if kind == "bounded":
        k0 = rng.randint(1, k)
        return kind, bounded_random_wavelengths(k, k0=k0)
    availability = rng.choice([0.3, 0.5, 0.8])
    # min_size=0 permits dark links, exercising the NoPathError agreement
    # between all backends; min_size=1 keeps most scenarios routable.
    min_size = rng.choice([0, 1])
    return kind, random_wavelengths(k, availability=availability, min_size=min_size)


def _draw_topology(rng: random.Random, family: str, n: int, k: int, **kw) -> WDMNetwork:
    if family == "line":
        return line_network(n, k, **kw)
    if family == "ring":
        return ring_network(n, k, **kw)
    if family == "degree-bounded":
        return degree_bounded_network(n, k, max_degree=rng.choice([2, 3, 4]), **kw)
    if family == "sparse":
        return random_sparse_network(n, k, average_degree=rng.choice([2.0, 3.0]), **kw)
    if family == "complete":
        return complete_network(min(n, 5), k, **kw)
    raise ValueError(f"unknown topology family {family!r}")


def random_scenario(
    seed: int, limits: ScenarioLimits = ScenarioLimits()
) -> Scenario:
    """Draw one reproducible scenario from *seed*.

    All randomness flows through one :class:`random.Random`; node ids are
    ints, so every generated scenario serializes to the corpus format.
    """
    rng = random.Random(seed)
    n = rng.randint(limits.min_nodes, limits.max_nodes)
    k = rng.randint(1, limits.max_wavelengths)
    family = rng.choice(TOPOLOGY_FAMILIES)
    conv_kind, conversion = _draw_conversion(rng, k)
    avail_kind, policy = _draw_availability(rng, k)

    def cost_policy(cost_rng: random.Random, tail, head, wavelength) -> float:
        return _lattice_cost(cost_rng)

    network = _draw_topology(
        rng,
        family,
        n,
        k,
        wavelength_policy=policy,
        cost_policy=cost_policy,
        conversion=conversion,
        seed=rng.randrange(2**31),
    )
    nodes = network.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    rng.shuffle(pairs)
    queries = tuple(pairs[: min(limits.max_queries, len(pairs))])
    description = (
        f"{family} n={network.num_nodes} k={k} "
        f"availability={avail_kind} conversion={conv_kind}"
    )
    return Scenario(
        network=network, queries=queries, seed=seed, description=description
    )


# -- serialization (the corpus format) ---------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Serialize to a JSON-compatible dict (see :mod:`repro.verify.corpus`)."""
    import json

    return {
        "format": SCENARIO_FORMAT,
        "seed": scenario.seed,
        "description": scenario.description,
        "network": json.loads(network_to_json(scenario.network)),
        "queries": [[s, t] for s, t in scenario.queries],
    }


def scenario_from_dict(document: dict[str, Any]) -> Scenario:
    """Inverse of :func:`scenario_to_dict`."""
    import json

    if document.get("format") != SCENARIO_FORMAT:
        raise ValueError(
            f"unsupported scenario format: {document.get('format')!r}"
        )
    network = network_from_json(json.dumps(document["network"]))
    queries = tuple((s, t) for s, t in document["queries"])
    return Scenario(
        network=network,
        queries=queries,
        seed=document.get("seed"),
        description=document.get("description", ""),
    )
