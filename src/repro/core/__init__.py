"""Core WDM model and the paper's optimal-semilightpath algorithm.

The modules here implement Sections II-IV of Liang & Shen:

* :mod:`~repro.core.wavelengths` / :mod:`~repro.core.network` — the network
  model ``G = (V, E)`` with per-link available-wavelength sets ``Λ(e)`` and
  costs ``w(e, λ)``,
* :mod:`~repro.core.conversion` — per-node wavelength-conversion cost
  functions ``c_v(λ_p, λ_q)``,
* :mod:`~repro.core.semilightpath` — the semilightpath object and its cost
  (paper Eq. 1),
* :mod:`~repro.core.auxiliary` — the transforms ``G_M``, ``G_v``, ``G'``,
  ``G_{s,t}``, ``G_all`` (Section III-A),
* :mod:`~repro.core.routing` — :class:`LiangShenRouter` (Theorem 1,
  Corollary 1),
* :mod:`~repro.core.restrictions` — Restrictions 1-2 and the Theorem 2
  node-simplicity guarantee.
"""

from repro.core.auxiliary import (
    AllPairsGraph,
    AuxiliarySizes,
    LayeredGraph,
    RoutingGraph,
    build_all_pairs_graph,
    build_layered_graph,
    build_routing_graph,
)
from repro.core.batch import BatchRouter
from repro.core.bounded import BoundedConversionRouter, conversion_cost_profile
from repro.core.ksp import k_shortest_semilightpaths
from repro.core.lightpath import LightpathRouter
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
    is_node_simple,
)
from repro.core.routing import AllPairsResult, LiangShenRouter, RouteResult
from repro.core.semilightpath import Hop, Semilightpath
from repro.core.wavelengths import wavelength_name

__all__ = [
    "WDMNetwork",
    "Link",
    "wavelength_name",
    "ConversionModel",
    "FullConversion",
    "NoConversion",
    "FixedCostConversion",
    "RangeLimitedConversion",
    "MatrixConversion",
    "CallableConversion",
    "Hop",
    "Semilightpath",
    "LayeredGraph",
    "RoutingGraph",
    "AllPairsGraph",
    "AuxiliarySizes",
    "build_layered_graph",
    "build_routing_graph",
    "build_all_pairs_graph",
    "LiangShenRouter",
    "RouteResult",
    "AllPairsResult",
    "BoundedConversionRouter",
    "conversion_cost_profile",
    "k_shortest_semilightpaths",
    "LightpathRouter",
    "BatchRouter",
    "check_restriction1",
    "check_restriction2",
    "enforce_restrictions",
    "is_node_simple",
]
