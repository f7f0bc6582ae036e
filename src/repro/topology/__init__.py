"""Network topology and workload generators.

Everything the benchmarks and tests route over is generated here:

* :mod:`~repro.topology.generators` — parametric topologies (ring, line,
  grid, torus, degree-bounded random, Waxman, Erdős–Rényi, complete),
* :mod:`~repro.topology.reference` — fixed reference networks: the paper's
  Figure 1 example (exact ``Λ(e)`` table), NSFNET, an ARPANET-like WAN,
* :mod:`~repro.topology.wavelength_assign` — ``Λ(e)`` assignment policies
  (all wavelengths, random subsets, ``k₀``-bounded subsets for Section IV),
* :mod:`~repro.topology.cost_models` — ``w(e, λ)`` cost policies and
  conversion-model factories, including generators that satisfy or violate
  Restrictions 1-2.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ring_network",
    "line_network",
    "grid_network",
    "torus_network",
    "degree_bounded_network",
    "random_sparse_network",
    "waxman_network",
    "complete_network",
    "paper_figure1_network",
    "nsfnet_network",
    "cost239_network",
    "arpanet_network",
    "all_wavelengths",
    "random_wavelengths",
    "bounded_random_wavelengths",
    "uniform_costs",
    "distance_scaled_costs",
    "wavelength_dependent_costs",
    "restriction2_conversion",
    "place_converters",
    "sparse_conversion_network",
    "gravity_demands",
    "uniform_demands",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "place_converters": ".converters",
        "sparse_conversion_network": ".converters",
        "gravity_demands": ".traffic_matrices",
        "uniform_demands": ".traffic_matrices",
        "distance_scaled_costs": ".cost_models",
        "restriction2_conversion": ".cost_models",
        "uniform_costs": ".cost_models",
        "wavelength_dependent_costs": ".cost_models",
        "complete_network": ".generators",
        "degree_bounded_network": ".generators",
        "grid_network": ".generators",
        "line_network": ".generators",
        "random_sparse_network": ".generators",
        "ring_network": ".generators",
        "torus_network": ".generators",
        "waxman_network": ".generators",
        "arpanet_network": ".reference",
        "cost239_network": ".reference",
        "nsfnet_network": ".reference",
        "paper_figure1_network": ".reference",
        "all_wavelengths": ".wavelength_assign",
        "bounded_random_wavelengths": ".wavelength_assign",
        "random_wavelengths": ".wavelength_assign",
    },
)
