"""THM4 — the restricted problem: running time independent of ``k``.

Claim (Theorem 4): with ``|Λ(e)| ≤ k₀`` the algorithm takes
``O(d²nk₀² + mk₀·log n)`` — "it is surprising to have found that the time
complexity for this case is independent of k".  We hold ``n, k₀`` fixed,
sweep the universe size ``k`` across two orders of magnitude, and require
the measured time to stay flat; then sweep ``k₀`` to see the quadratic
term move.
"""

from __future__ import annotations

import statistics
import time

from repro.analysis.complexity import fit_power_law, growth_table
from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from benchmarks.conftest import restricted_wan


def _query_pass(router, nodes) -> None:
    for s, t in [(nodes[0], nodes[-1]), (nodes[1], nodes[len(nodes) // 2])]:
        try:
            router.route(s, t)
        except NoPathError:
            pass


def _median_query_times(nets, rounds: int = 15) -> list[float]:
    """Median time of one query pass per network, timed round-robin.

    Every router is built and its ``G'`` warmed before any timing; each
    round then times one pass on every network in turn, so a slow phase
    of the host lands on all networks alike rather than on whichever
    one was being timed.
    """
    routers = []
    for net in nets:
        router = LiangShenRouter(net)
        _query_pass(router, net.nodes())  # builds G'
        routers.append((router, net.nodes()))
    samples: list[list[float]] = [[] for _ in routers]
    for _ in range(rounds):
        for (router, nodes), times in zip(routers, samples):
            start = time.perf_counter()
            _query_pass(router, nodes)
            times.append(time.perf_counter() - start)
    return [statistics.median(times) for times in samples]


def test_time_independent_of_k(benchmark, report):
    n, k0 = 128, 3
    ks = [8, 32, 128, 512]
    times = _median_query_times([restricted_wan(n, k, k0, seed=9) for k in ks])
    fit = fit_power_law(ks, times)
    report(
        f"THM4: query time vs universe size k (n={n}, k0={k0})",
        growth_table(ks, {"seconds": times}, x_name="k"),
    )
    # Independence of k: fitted exponent ~0 (allow noise; ±0.25).
    assert abs(fit.exponent) < 0.25, (
        f"time depends on k with exponent {fit.exponent:.2f}"
    )
    # And the largest universe costs no more than ~1.5x the smallest.
    assert max(times) <= 1.6 * min(times)

    net = restricted_wan(n, 512, k0, seed=9)
    nodes = net.nodes()
    router = LiangShenRouter(net)
    benchmark(lambda: router.route(nodes[0], nodes[-1]))
    benchmark.extra_info["fit_exponent_k"] = fit.exponent
    benchmark.extra_info["times_vs_k"] = dict(zip(map(str, ks), times))


def test_time_grows_with_k0(benchmark, report):
    """The flip side: the d²nk₀² term makes k₀ the real knob."""
    n, k = 128, 64
    k0s = [1, 2, 4, 8]
    times = _median_query_times([restricted_wan(n, k, k0, seed=10) for k0 in k0s])
    report(
        f"THM4: query time vs per-link bound k0 (n={n}, k={k})",
        growth_table(k0s, {"seconds": times}, x_name="k0"),
    )
    assert times[-1] > times[0], "k0 had no effect at all"

    net = restricted_wan(n, k, 4, seed=10)
    nodes = net.nodes()
    router = LiangShenRouter(net)
    benchmark(lambda: router.route(nodes[0], nodes[-1]))
    benchmark.extra_info["times_vs_k0"] = dict(zip(map(str, k0s), times))


def test_auxiliary_size_independent_of_k(benchmark):
    """The mechanism behind Theorem 4: |V'| and |E'| are set by k₀, not k."""
    from repro.core.auxiliary import build_layered_graph

    n, k0 = 96, 2
    sizes = []
    for k in (8, 512):
        net = restricted_wan(n, k, k0, seed=11)
        sizes.append(build_layered_graph(net).sizes)
    small_k, big_k = sizes
    assert big_k.num_layer_nodes <= 2 * small_k.num_layer_nodes
    assert big_k.num_layer_edges <= 2 * small_k.num_layer_edges

    net = restricted_wan(n, 512, k0, seed=11)
    graph = benchmark(lambda: build_layered_graph(net))
    assert graph.sizes.within_bounds()
