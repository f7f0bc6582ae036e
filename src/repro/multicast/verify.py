"""Differential verification for light-hierarchy multicast routing.

The multicast scenario kind for :mod:`repro.verify`: seeded random
scenarios (network + splitter map + member sets), and a harness that
checks the heuristic joiner against the exact channel-graph oracle and
the router-independent certificate.  Everything else is the unicast
toolkit's: :func:`repro.verify.fuzz` drives the loop,
:func:`repro.verify.shrink_scenario` shrinks a failure through the
:class:`~repro.verify.shrink.Shrinkable` protocol below, and
:mod:`repro.verify.corpus` persists it as ``mcase-*.json``.  The two
passes only multicast has — member sets, then splitters — run right after
the request pass; the node, link, wavelength, universe and simplify
passes follow.

Disagreement semantics (see :mod:`repro.multicast.oracle` for why these
are exactly the provable-bug set):

* **error** — the router raised anything other than
  :class:`~repro.exceptions.MulticastBlockedError`;
* **certificate** — a returned hierarchy fails the independent Eq. (1)
  + splitter-constraint revalidation;
* **reachability** — the router returned a hierarchy although the oracle
  proves the request infeasible;
* **cost** — the router's claimed cost beats the oracle's optimum (a
  valid hierarchy can never cost less than the relaxation's minimum).

A router that *blocks* where the oracle finds a finite optimum is greedy
incompleteness, not a bug: nearest-member-first commits to attachment
points without lookahead.  Those events are counted in
``MulticastScenarioReport.blocked`` so fuzz output keeps the heuristic
honest without failing CI on known heuristic limits.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable

from repro.io.serialization import network_from_json, network_to_json
from repro.exceptions import MulticastBlockedError
from repro.multicast.hierarchy import LightHierarchy, MulticastRequest
from repro.multicast.oracle import MAX_ORACLE_MEMBERS, optimal_hierarchy_cost
from repro.multicast.router import MulticastRouter
from repro.multicast.splitters import MC, SplitterMap
from repro.verify.certificate import check_hierarchy_certificate, costs_close
from repro.verify.oracles import SMALL_STATE_LIMIT
from repro.verify.scenarios import ScenarioLimits, random_scenario

__all__ = [
    "MulticastScenario",
    "MulticastDisagreement",
    "MulticastScenarioReport",
    "MulticastHarness",
    "random_multicast_scenario",
    "multicast_scenario_to_dict",
    "multicast_scenario_from_dict",
]

NodeId = Hashable

#: JSON schema version for serialized multicast scenarios.
MULTICAST_SCENARIO_FORMAT = 1

#: Splitter densities the generator sweeps (fraction of MC nodes).
DENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True, eq=False)
class MulticastScenario:
    """One multicast verification work item."""

    network: Any  # WDMNetwork
    splitters: SplitterMap
    requests: tuple[MulticastRequest, ...]
    seed: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        for request in self.requests:
            if not self.network.has_node(request.source):
                raise ValueError(f"source off the network: {request.source!r}")
            for member in request.members:
                if not self.network.has_node(member):
                    raise ValueError(f"member off the network: {member!r}")

    # -- the repro.verify.shrink.Shrinkable protocol -------------------------

    @property
    def items(self) -> tuple[MulticastRequest, ...]:
        return self.requests

    def with_items(
        self, requests: tuple[MulticastRequest, ...]
    ) -> "MulticastScenario":
        return replace(self, requests=requests)

    def pinned_nodes(self) -> set[NodeId]:
        return {
            node
            for request in self.requests
            for node in (request.source, *request.members)
        }

    def size(self) -> tuple[int, ...]:
        return (
            len(self.requests),
            sum(len(r.members) for r in self.requests),
            sum(
                1
                for node in self.network.nodes()
                if self.splitters.capability(node) != MC
            ),
        )

    def shrink_passes(self) -> tuple:
        return (_shrink_members, _simplify_splitters)

    def __repr__(self) -> str:
        return (
            f"MulticastScenario(n={self.network.num_nodes}, "
            f"m={self.network.num_links}, k={self.network.num_wavelengths}, "
            f"requests={len(self.requests)}, seed={self.seed!r})"
        )


@dataclass(frozen=True)
class MulticastDisagreement:
    """One verified multicast routing bug witness."""

    kind: str  # "error" | "certificate" | "reachability" | "cost"
    source: NodeId
    members: tuple[NodeId, ...]
    detail: str

    def summary(self) -> str:
        members = ", ".join(repr(m) for m in self.members)
        return f"[{self.kind}] {self.source!r} -> {{{members}}}: {self.detail}"


@dataclass
class MulticastScenarioReport:
    """Everything one multicast scenario run produced."""

    scenario: MulticastScenario
    requests_checked: int = 0
    routed: int = 0  # requests for which a hierarchy was produced
    blocked: int = 0  # heuristic blocked, oracle feasible (not a bug)
    oracle_checked: int = 0
    disagreements: list[MulticastDisagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def counters(self) -> dict[str, int]:
        """What :func:`repro.verify.fuzz` sums across reports."""
        return {
            "requests_checked": self.requests_checked,
            "oracle_checked": self.oracle_checked,
            "blocked": self.blocked,
        }

    def format(self) -> str:
        lines = [
            f"multicast scenario seed={self.scenario.seed!r} "
            f"{self.scenario.description} ({self.scenario!r})",
            f"requests checked: {self.requests_checked} "
            f"(routed: {self.routed}, "
            f"oracle-compared: {self.oracle_checked}, "
            f"heuristic-blocked: {self.blocked})",
        ]
        if self.ok:
            lines.append("no disagreements")
        else:
            lines.append(f"{len(self.disagreements)} disagreement(s):")
            lines.extend(f"  {d.summary()}" for d in self.disagreements)
        return "\n".join(lines)


class MulticastHarness:
    """Check the joiner against the exact oracle and the certificate.

    ``cost_perturbation`` is a self-test hook: every returned hierarchy's
    claimed cost is shifted by that amount before checking, so a nonzero
    value *must* produce certificate disagreements — this is how the CLI
    proves the multicast pipeline can catch a mispricing bug end to end.
    """

    #: The scenario kind :meth:`run` takes (see
    #: :func:`~repro.verify.corpus.replay_corpus`).
    scenario_type = MulticastScenario

    def __init__(self, cost_perturbation: float = 0.0) -> None:
        self.cost_perturbation = cost_perturbation

    def run(self, scenario: MulticastScenario) -> MulticastScenarioReport:
        report = MulticastScenarioReport(scenario=scenario)
        network = scenario.network
        oracle_applies = (
            network.num_nodes * network.num_wavelengths <= SMALL_STATE_LIMIT
        )
        for request in scenario.requests:
            report.requests_checked += 1
            router = MulticastRouter(network, splitters=scenario.splitters)
            hierarchy: LightHierarchy | None = None
            try:
                hierarchy = router.route(request).hierarchy
            except MulticastBlockedError:
                pass
            except Exception as exc:
                report.disagreements.append(
                    MulticastDisagreement(
                        kind="error",
                        source=request.source,
                        members=request.members,
                        detail=f"router raised {type(exc).__name__}: {exc}",
                    )
                )
                continue
            if hierarchy is not None:
                report.routed += 1
            if hierarchy is not None and self.cost_perturbation:
                hierarchy = LightHierarchy(
                    source=hierarchy.source,
                    members=hierarchy.members,
                    paths=hierarchy.paths,
                    total_cost=hierarchy.total_cost + self.cost_perturbation,
                )
            if hierarchy is not None:
                cert = check_hierarchy_certificate(
                    network,
                    hierarchy,
                    splitters=scenario.splitters,
                    source=request.source,
                    members=request.members,
                )
                if not cert.ok:
                    report.disagreements.append(
                        MulticastDisagreement(
                            kind="certificate",
                            source=request.source,
                            members=request.members,
                            detail="; ".join(cert.violations),
                        )
                    )
            if not oracle_applies or len(request.members) > MAX_ORACLE_MEMBERS:
                continue
            report.oracle_checked += 1
            optimum = optimal_hierarchy_cost(
                network, request, splitters=scenario.splitters
            )
            if hierarchy is None:
                if math.isfinite(optimum):
                    report.blocked += 1
            elif math.isinf(optimum):
                report.disagreements.append(
                    MulticastDisagreement(
                        kind="reachability",
                        source=request.source,
                        members=request.members,
                        detail=(
                            f"router built a hierarchy costing "
                            f"{hierarchy.total_cost!r} but the oracle "
                            f"proves the request infeasible"
                        ),
                    )
                )
            elif hierarchy.total_cost < optimum and not costs_close(
                hierarchy.total_cost, optimum
            ):
                report.disagreements.append(
                    MulticastDisagreement(
                        kind="cost",
                        source=request.source,
                        members=request.members,
                        detail=(
                            f"claimed cost {hierarchy.total_cost!r} beats "
                            f"the exact optimum {optimum!r}"
                        ),
                    )
                )
        return report


# -- scenario generation ------------------------------------------------------


def random_multicast_scenario(
    seed: int, limits: ScenarioLimits = ScenarioLimits()
) -> MulticastScenario:
    """Draw one reproducible multicast scenario from *seed*.

    Reuses the unicast generator's topology/conversion/availability axes
    (:func:`~repro.verify.scenarios.random_scenario`) and adds the two
    multicast axes: splitter density (fraction of ``MC`` nodes, with the
    non-MC remainder split between ``TAC`` and ``MI``) and member sets of
    1–4 destinations per request.
    """
    from repro.topology.generators import assign_splitters

    rng = random.Random(seed)
    base = random_scenario(rng.randrange(2**63), limits=limits)
    network = base.network
    density = rng.choice(DENSITIES)
    tap_share = rng.choice((0.0, 0.5, 1.0))
    splitters = assign_splitters(
        network,
        density=density,
        tap_share=tap_share,
        seed=rng.randrange(2**31),
    )
    nodes = network.nodes()
    requests: list[MulticastRequest] = []
    for _ in range(rng.randint(1, 3)):
        source = rng.choice(nodes)
        others = [node for node in nodes if node != source]
        if not others:
            continue
        count = rng.randint(1, min(MAX_ORACLE_MEMBERS, len(others)))
        members = tuple(rng.sample(others, count))
        requests.append(MulticastRequest(source=source, members=members))
    description = (
        f"{base.description} splitter-density={density:g} "
        f"tap-share={tap_share:g}"
    )
    return MulticastScenario(
        network=network,
        splitters=splitters,
        requests=tuple(requests),
        seed=seed,
        description=description,
    )


# -- serialization ------------------------------------------------------------


def multicast_scenario_to_dict(scenario: MulticastScenario) -> dict[str, Any]:
    return {
        "format": MULTICAST_SCENARIO_FORMAT,
        "multicast": True,
        "seed": scenario.seed,
        "description": scenario.description,
        "network": json.loads(network_to_json(scenario.network)),
        "splitters": scenario.splitters.to_dict(),
        "requests": [
            [request.source, list(request.members)]
            for request in scenario.requests
        ],
    }


def multicast_scenario_from_dict(document: dict[str, Any]) -> MulticastScenario:
    if document.get("format") != MULTICAST_SCENARIO_FORMAT or not document.get(
        "multicast"
    ):
        raise ValueError(
            f"unsupported multicast scenario format: {document.get('format')!r}"
        )
    return MulticastScenario(
        network=network_from_json(json.dumps(document["network"])),
        splitters=SplitterMap.from_dict(document.get("splitters", {})),
        requests=tuple(
            MulticastRequest(source=source, members=tuple(members))
            for source, members in document["requests"]
        ),
        seed=document.get("seed"),
        description=document.get("description", ""),
    )


# -- multicast-only shrink passes ---------------------------------------------

FailsFn = Callable[[MulticastScenario], bool]


def _shrink_members(scenario: MulticastScenario, fails: FailsFn) -> MulticastScenario:
    """The multicast-specific pass: drop members one at a time.

    The fixed point is member-minimal — removing any single member from
    any request makes the failure disappear.
    """
    for i, request in enumerate(scenario.requests):
        members = list(request.members)
        j = 0
        while j < len(members) and len(members) > 1:
            reduced = MulticastRequest(
                source=request.source,
                members=tuple(members[:j] + members[j + 1 :]),
            )
            requests = list(scenario.requests)
            requests[i] = reduced
            candidate = scenario.with_items(tuple(requests))
            if fails(candidate):
                del members[j]
                scenario = candidate
                request = reduced
            else:
                j += 1
    return scenario


def _simplify_splitters(
    scenario: MulticastScenario, fails: FailsFn
) -> MulticastScenario:
    """Promote non-MC nodes back to MC where the failure survives — the
    remaining constrained nodes are exactly the ones the bug needs."""
    for node in scenario.network.nodes():
        if scenario.splitters.capability(node) == MC:
            continue
        table = {
            n: scenario.splitters.capability(n)
            for n in scenario.network.nodes()
            if scenario.splitters.capability(n) != MC and n != node
        }
        candidate = replace(scenario, splitters=SplitterMap(table))
        if fails(candidate):
            scenario = candidate
    return scenario
