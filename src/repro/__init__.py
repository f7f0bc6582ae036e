"""semilight — optimal lightpath/semilightpath routing in large WDM networks.

A from-scratch reproduction of **Liang & Shen, "Improved Lightpath
(Wavelength) Routing in Large WDM Networks"** (ICDCS 1998 / IEEE Trans.
Commun. 2000): the layered-graph reduction that finds minimum-cost
semilightpaths in ``O(k²n + km + kn·log(kn))`` time, its distributed
implementation, the Section IV restricted (``k₀``-bounded) analysis, and
the Chlamtac–Faragó–Zhang baseline it improves on — plus the surrounding
systems (topology generators, a dynamic provisioning layer, a distributed
message-passing simulator, and benchmark harnesses for every claim in the
paper).

Quickstart
----------
>>> from repro import LiangShenRouter, paper_figure1_network
>>> net = paper_figure1_network()
>>> router = LiangShenRouter(net)
>>> result = router.route(1, 7)
>>> result.path.source, result.path.target
(1, 7)

Package map
-----------
``repro.core``
    The paper's model and algorithms (network, semilightpath, auxiliary
    graphs, the Liang–Shen router, Restrictions 1-2).
``repro.baseline``
    The CFZ wavelength-graph algorithm and a brute-force oracle.
``repro.shortestpath``
    Graphs, addressable heaps (binary / pairing / Fibonacci), Dijkstra,
    Bellman–Ford.
``repro.distributed``
    Message-passing simulator and the distributed router (Theorems 3/5).
``repro.topology``
    Topology, wavelength-availability, and cost generators; reference
    networks including the paper's Figure 1 example.
``repro.wdm``
    Dynamic provisioning (RWA) layer: reservations, Poisson traffic,
    blocking-probability simulation.
``repro.service``
    Request-driven routing service: epoch-versioned ``G_all`` caching,
    deadlines, retry and circuit breaking on the caller's thread, metrics.
``repro.analysis`` / ``repro.io``
    Size accounting vs the paper's bounds, complexity fitting, JSON/DOT.
"""

from repro.core.auxiliary import (
    AuxiliarySizes,
    build_all_pairs_graph,
    build_layered_graph,
    build_routing_graph,
)
from repro.core.conversion import (
    CallableConversion,
    ConversionModel,
    FixedCostConversion,
    FullConversion,
    MatrixConversion,
    NoConversion,
    RangeLimitedConversion,
)
from repro.core.network import Link, WDMNetwork
from repro.core.restrictions import (
    check_restriction1,
    check_restriction2,
    enforce_restrictions,
)
from repro.core.bounded import BoundedConversionRouter, conversion_cost_profile
from repro.core.ksp import k_shortest_semilightpaths
from repro.core.routing import AllPairsResult, LiangShenRouter, RouteResult
from repro.core.semilightpath import Conversion, Hop, Semilightpath
from repro.exceptions import (
    CircuitOpenError,
    ConversionError,
    DeadlineExceeded,
    InjectedFaultError,
    InvalidPathError,
    NetworkStructureError,
    NoPathError,
    RestrictionViolation,
    SemilightError,
    ServiceError,
    ServiceOverloadError,
    TransientBackendError,
    WavelengthError,
)
from repro.service import (
    EpochRouterCache,
    MetricsRegistry,
    RoutingService,
)
from repro.topology.reference import (
    arpanet_network,
    nsfnet_network,
    paper_figure1_network,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "WDMNetwork",
    "Link",
    "Hop",
    "Conversion",
    "Semilightpath",
    # conversion models
    "ConversionModel",
    "FullConversion",
    "NoConversion",
    "FixedCostConversion",
    "RangeLimitedConversion",
    "MatrixConversion",
    "CallableConversion",
    # routing
    "LiangShenRouter",
    "RouteResult",
    "AllPairsResult",
    "BoundedConversionRouter",
    "conversion_cost_profile",
    "k_shortest_semilightpaths",
    "build_layered_graph",
    "build_routing_graph",
    "build_all_pairs_graph",
    "AuxiliarySizes",
    # restrictions
    "check_restriction1",
    "check_restriction2",
    "enforce_restrictions",
    # serving layer
    "RoutingService",
    "EpochRouterCache",
    "MetricsRegistry",
    # reference networks
    "paper_figure1_network",
    "nsfnet_network",
    "arpanet_network",
    # exceptions
    "SemilightError",
    "NetworkStructureError",
    "WavelengthError",
    "ConversionError",
    "NoPathError",
    "InvalidPathError",
    "RestrictionViolation",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceeded",
    "TransientBackendError",
    "InjectedFaultError",
    "CircuitOpenError",
]
