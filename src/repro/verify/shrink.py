"""Delta-debugging reduction of failing scenarios.

Given a scenario on which some predicate fails (normally "the differential
harness found a disagreement"), :func:`shrink_scenario` greedily removes
structure while the failure persists, cycling through reduction passes
until a fixed point:

1. **items** — keep a single still-failing query (unicast) or request
   (multicast) when one suffices, else drop them one at a time;
2. **kind-specific passes** — the scenario type's own
   :meth:`~Shrinkable.shrink_passes`: none for unicast; member sets, then
   splitters, for multicast (:mod:`repro.multicast.verify`);
3. **nodes** — drop each node the items do not name (with its incident
   links) in turn;
4. **links** — drop each directed link in turn;
5. **wavelengths** — drop each per-link wavelength entry in turn;
6. **universe** — cut ``k`` down to the largest wavelength still used;
7. **simplify** — try unit link costs, then a flat 0.5-cost converter
   everywhere (cosmetic passes that make the counterexample readable).

Every candidate is validated by re-running the *caller's* predicate — the
shrinker never assumes which oracles disagreed, so it works unchanged for
injected-fault fixtures and for real bugs.  The predicate is called
``O(passes × (n + m + m₁ + q))`` times; scenarios are generator-sized, so
this stays comfortably sub-second per reduction step.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Hashable, Mapping, Protocol, TypeVar

from repro.core.conversion import ConversionModel, FixedCostConversion
from repro.core.network import WDMNetwork

__all__ = ["Shrinkable", "shrink_scenario"]

NodeId = Hashable
S = TypeVar("S", bound="Shrinkable")
FailsFn = Callable[[Any], bool]


class Shrinkable(Protocol):
    """What :func:`shrink_scenario` needs from a scenario type.

    Implementers are frozen dataclasses with ``network`` and
    ``description`` fields (the network passes swap the network with
    :func:`dataclasses.replace`), plus the members below.
    """

    network: WDMNetwork
    description: str

    @property
    def items(self) -> tuple:
        """The work items: queries (unicast) or requests (multicast)."""

    def with_items(self: S, items: tuple) -> S:
        """A copy holding only *items*."""

    def pinned_nodes(self) -> set[NodeId]:
        """Nodes the items name; the node pass never drops them."""

    def size(self) -> tuple[int, ...]:
        """Item-side measures; with the network's they detect the fixed point."""

    def shrink_passes(self: S) -> tuple[Callable[[S, FailsFn], S], ...]:
        """Kind-specific passes, run right after the items pass."""


# -- surgical network edits ---------------------------------------------------


def _rebuild(
    network: WDMNetwork,
    keep_nodes: set[NodeId] | None = None,
    link_costs: Callable[[NodeId, NodeId, Mapping[int, float]], Mapping[int, float] | None]
    | None = None,
    num_wavelengths: int | None = None,
    conversion: ConversionModel | None = None,
) -> WDMNetwork:
    """Copy *network* with nodes/links/costs filtered or transformed.

    ``link_costs`` maps ``(tail, head, costs)`` to the new cost table, or
    ``None`` to drop the link.  ``conversion`` replaces every model
    (explicit ones included) when given.
    """
    clone = WDMNetwork(
        num_wavelengths=(
            num_wavelengths if num_wavelengths is not None else network.num_wavelengths
        ),
        default_conversion=(
            conversion if conversion is not None else network.default_conversion
        ),
    )
    for node in network.nodes():
        if keep_nodes is not None and node not in keep_nodes:
            continue
        explicit = None if conversion is not None else network.explicit_conversion(node)
        clone.add_node(node, explicit)
    for link in network.links():
        if not (clone.has_node(link.tail) and clone.has_node(link.head)):
            continue
        costs: Mapping[int, float] | None = link.costs
        if link_costs is not None:
            costs = link_costs(link.tail, link.head, link.costs)
            if costs is None:
                continue
        clone.add_link(link.tail, link.head, dict(costs))
    return clone


def _candidate(scenario: S, network: WDMNetwork) -> S:
    """*scenario* on *network* (which keeps every pinned node)."""
    return replace(scenario, network=network)


# -- reduction passes ---------------------------------------------------------


def _shrink_items(scenario: S, fails: FailsFn) -> S:
    items = scenario.items
    if len(items) <= 1:
        return scenario
    for item in items:
        candidate = scenario.with_items((item,))
        if fails(candidate):
            return candidate
    # No single item reproduces (e.g. a stateful interaction); drop items
    # one at a time instead.
    remaining = list(items)
    index = 0
    while index < len(remaining) and len(remaining) > 1:
        candidate = scenario.with_items(
            tuple(remaining[:index] + remaining[index + 1 :])
        )
        if fails(candidate):
            del remaining[index]
            scenario = candidate
        else:
            index += 1
    return scenario


def _shrink_nodes(scenario: S, fails: FailsFn) -> S:
    pinned = scenario.pinned_nodes()
    for node in scenario.network.nodes():
        if node in pinned:
            continue
        keep = set(scenario.network.nodes()) - {node}
        candidate = _candidate(scenario, _rebuild(scenario.network, keep_nodes=keep))
        if fails(candidate):
            scenario = candidate
    return scenario


def _shrink_links(scenario: S, fails: FailsFn) -> S:
    for link in list(scenario.network.links()):
        def drop(tail, head, costs, _link=link):
            if (tail, head) == (_link.tail, _link.head):
                return None
            return costs

        candidate = _candidate(scenario, _rebuild(scenario.network, link_costs=drop))
        if fails(candidate):
            scenario = candidate
    return scenario


def _shrink_wavelength_entries(scenario: S, fails: FailsFn) -> S:
    for link in list(scenario.network.links()):
        for wavelength in sorted(link.costs):
            def drop_entry(tail, head, costs, _link=link, _w=wavelength):
                if (tail, head) == (_link.tail, _link.head):
                    return {w: c for w, c in costs.items() if w != _w}
                return costs

            candidate = _candidate(
                scenario, _rebuild(scenario.network, link_costs=drop_entry)
            )
            if fails(candidate):
                scenario = candidate
    return scenario


def _shrink_universe(scenario: S, fails: FailsFn) -> S:
    used = [w for link in scenario.network.links() for w in link.costs]
    k = max(used) + 1 if used else 1
    if k >= scenario.network.num_wavelengths:
        return scenario
    candidate = _candidate(
        scenario, _rebuild(scenario.network, num_wavelengths=k)
    )
    return candidate if fails(candidate) else scenario


def _simplify(scenario: S, fails: FailsFn) -> S:
    unit = _candidate(
        scenario,
        _rebuild(scenario.network, link_costs=lambda t, h, costs: {w: 1.0 for w in costs}),
    )
    if fails(unit):
        scenario = unit
    flat = _candidate(
        scenario, _rebuild(scenario.network, conversion=FixedCostConversion(0.5))
    )
    if fails(flat):
        scenario = flat
    return scenario


_NETWORK_PASSES = (
    _shrink_nodes,
    _shrink_links,
    _shrink_wavelength_entries,
    _shrink_universe,
    _simplify,
)


def _size(scenario: Shrinkable) -> tuple[int, ...]:
    network = scenario.network
    return (
        network.num_nodes,
        network.num_links,
        network.total_link_wavelengths,
        network.num_wavelengths,
        *scenario.size(),
    )


def shrink_scenario(scenario: S, fails: FailsFn, max_rounds: int = 8) -> S:
    """Reduce *scenario* to a (locally) minimal one on which *fails* holds.

    *scenario* is any :class:`Shrinkable` — a unicast
    :class:`~repro.verify.scenarios.Scenario` or a
    :class:`~repro.multicast.verify.MulticastScenario`.  *fails* must
    return True for *scenario* itself (raises ``ValueError`` otherwise —
    shrinking a passing scenario would silently return junk).  The result
    is 1-minimal with respect to the passes above: removing any single
    remaining node, link, wavelength entry, or item makes the failure
    disappear.
    """
    if not fails(scenario):
        raise ValueError("refusing to shrink: the scenario does not fail")
    passes = (_shrink_items, *scenario.shrink_passes(), *_NETWORK_PASSES)
    for _ in range(max_rounds):
        before = _size(scenario)
        for reduction_pass in passes:
            scenario = reduction_pass(scenario, fails)
        if _size(scenario) == before:
            break
    if not scenario.description.endswith(" (shrunk)"):
        scenario = replace(scenario, description=scenario.description + " (shrunk)")
    return scenario
