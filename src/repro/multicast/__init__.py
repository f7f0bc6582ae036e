"""Light-hierarchy multicast routing under sparse-splitter constraints.

One-to-many demands are routed as *light-hierarchies* over the same
Liang–Shen auxiliary graph the unicast router uses: channels (directed
link × wavelength) are used at most once, nodes may repeat, and each
node's optical splitting capability (:data:`MC` / :data:`TAC` /
:data:`MI`) bounds how a signal may branch, tap, or terminate there.

Package layout:

* :mod:`~repro.multicast.splitters` — per-node capability model;
* :mod:`~repro.multicast.hierarchy` — request/hierarchy types and the
  channel-parent derivation;
* :mod:`~repro.multicast.router` — nearest-member-first joining
  heuristic over auxiliary-graph distances;
* :mod:`~repro.multicast.oracle` — exact Dreyfus–Wagner reference for
  small instances;
* :mod:`~repro.multicast.verify` — the multicast scenario kind and its
  differential harness; :mod:`repro.verify` fuzzes, shrinks (member
  sets and splitters right after the request pass, then the shared
  network passes) and persists it (``mcase-*.json``);
* :mod:`~repro.multicast.churn` — chaos soak under fault + member churn.
"""

from repro.multicast.churn import (
    ChurnViolation,
    MulticastChurnReport,
    MulticastChurnSoak,
)
from repro.multicast.hierarchy import (
    LightHierarchy,
    MulticastRequest,
    derive_parents,
)
from repro.multicast.oracle import MAX_ORACLE_MEMBERS, optimal_hierarchy_cost
from repro.multicast.router import MulticastRouteResult, MulticastRouter
from repro.multicast.splitters import CAPABILITIES, MC, MI, TAC, SplitterMap
from repro.multicast.verify import (
    MulticastDisagreement,
    MulticastHarness,
    MulticastScenario,
    MulticastScenarioReport,
    random_multicast_scenario,
)

__all__ = [
    "CAPABILITIES",
    "MC",
    "MI",
    "TAC",
    "SplitterMap",
    "MulticastRequest",
    "LightHierarchy",
    "derive_parents",
    "MulticastRouter",
    "MulticastRouteResult",
    "MAX_ORACLE_MEMBERS",
    "optimal_hierarchy_cost",
    "MulticastScenario",
    "MulticastScenarioReport",
    "MulticastDisagreement",
    "MulticastHarness",
    "random_multicast_scenario",
    "ChurnViolation",
    "MulticastChurnReport",
    "MulticastChurnSoak",
]
