"""The Section III-C comparison harness: Liang–Shen vs CFZ.

The paper's central practical claim: on large sparse networks with few
wavelengths (``m = O(n)``, ``k = O(log n)``), the layered-graph algorithm
beats the CFZ wavelength-graph algorithm by a factor of
``Ω(n / max{k, d, log n})`` — e.g. ``O(n log² n)`` vs ``O(n² log n)``.

:func:`run_comparison` sweeps ``n``, generates the paper's regime
(degree-bounded sparse networks, ``k = ⌈log₂ n⌉``), times both routers on
identical queries, and reports per-``n`` rows with the measured speedup.
Used by ``benchmarks/bench_vs_cfz.py`` and ``examples/scaling_study.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baseline.cfz import CFZRouter
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.topology.generators import degree_bounded_network
from repro.topology.wavelength_assign import random_wavelengths

__all__ = ["ComparisonRow", "run_comparison", "paper_regime_network"]


@dataclass(frozen=True)
class ComparisonRow:
    """One sweep point of the ours-vs-CFZ study."""

    n: int
    m: int
    k: int
    d: int
    liang_shen_seconds: float
    cfz_seconds: float
    cost_liang_shen: float
    cost_cfz: float

    @property
    def speedup(self) -> float:
        """CFZ time / Liang–Shen time (> 1 means we win)."""
        if self.liang_shen_seconds == 0:
            return math.inf
        return self.cfz_seconds / self.liang_shen_seconds

    @property
    def costs_agree(self) -> bool:
        """Both algorithms found the same optimum (they must)."""
        return math.isclose(
            self.cost_liang_shen, self.cost_cfz, rel_tol=1e-9, abs_tol=1e-9
        )


def paper_regime_network(n: int, seed: int = 0) -> WDMNetwork:
    """A network in the paper's comparison regime.

    ``m = O(n)`` (degree-bounded random sparse topology, ``d ≤ 4``) and
    ``k = ⌈log₂ n⌉`` wavelengths with ~60% availability per link —
    the "k and m relatively small, n relatively large" case where the
    improvement is claimed to be most significant.
    """
    k = max(1, math.ceil(math.log2(n)))
    return degree_bounded_network(
        n,
        k,
        max_degree=4,
        seed=seed,
        wavelength_policy=random_wavelengths(k, availability=0.6),
    )


def run_comparison(
    ns: Sequence[int],
    network_factory: Callable[[int, int], WDMNetwork] = paper_regime_network,
    queries_per_n: int = 3,
    repeats: int = 1,
    seed: int = 0,
    cfz_engine: str = "dense",
) -> list[ComparisonRow]:
    """Time both routers across an ``n`` sweep on identical queries.

    For each ``n`` the total wall-clock of *queries_per_n* single-pair
    queries (endpoints spread across the node list) is measured,
    best-of-*repeats*.  Construction cost is included for both — each
    query rebuilds its auxiliary graph, exactly as both papers account it:
    ours runs ``LiangShenRouter(overlay=False)``, Theorem 1's per-query
    ``G_{s,t}`` build plus search, not the warm cached ``G'``.
    """
    rows: list[ComparisonRow] = []
    for n in ns:
        network = network_factory(n, seed)
        nodes = network.nodes()
        pairs = [
            (nodes[(i * 7919) % n], nodes[((i * 7919) % n + n // 2) % n])
            for i in range(queries_per_n)
        ]
        pairs = [(s, t) for s, t in pairs if s != t]
        ls = LiangShenRouter(network, overlay=False)
        cfz = CFZRouter(network, engine=cfz_engine)

        def run_all(router) -> tuple[float, float]:
            best = math.inf
            total_cost = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                total_cost = 0.0
                for s, t in pairs:
                    total_cost += router.route(s, t).cost
                best = min(best, time.perf_counter() - start)
            return best, total_cost

        t_ls, cost_ls = run_all(ls)
        t_cfz, cost_cfz = run_all(cfz)
        rows.append(
            ComparisonRow(
                n=n,
                m=network.num_links,
                k=network.num_wavelengths,
                d=network.max_degree,
                liang_shen_seconds=t_ls,
                cfz_seconds=t_cfz,
                cost_liang_shen=cost_ls,
                cost_cfz=cost_cfz,
            )
        )
    return rows
