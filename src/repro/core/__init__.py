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

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "AllPairsGraph": ".auxiliary",
        "AuxiliarySizes": ".auxiliary",
        "LayeredGraph": ".auxiliary",
        "RoutingGraph": ".auxiliary",
        "build_all_pairs_graph": ".auxiliary",
        "build_layered_graph": ".auxiliary",
        "build_routing_graph": ".auxiliary",
        "BatchRouter": ".batch",
        "BoundedConversionRouter": ".bounded",
        "conversion_cost_profile": ".bounded",
        "k_shortest_semilightpaths": ".ksp",
        "LightpathRouter": ".lightpath",
        "CallableConversion": ".conversion",
        "ConversionModel": ".conversion",
        "FixedCostConversion": ".conversion",
        "FullConversion": ".conversion",
        "MatrixConversion": ".conversion",
        "NoConversion": ".conversion",
        "RangeLimitedConversion": ".conversion",
        "Link": ".network",
        "WDMNetwork": ".network",
        "check_restriction1": ".restrictions",
        "check_restriction2": ".restrictions",
        "enforce_restrictions": ".restrictions",
        "is_node_simple": ".restrictions",
        "AllPairsResult": ".routing",
        "LiangShenRouter": ".routing",
        "RouteResult": ".routing",
        "Hop": ".semilightpath",
        "Semilightpath": ".semilightpath",
        "wavelength_name": ".wavelengths",
    },
)
