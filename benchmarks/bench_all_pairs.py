"""COR1 — all-pairs optimal semilightpaths via ``G_all``.

Claim (Corollary 1): all pairs in ``O(k²n² + kmn + kn²·log(kn))`` — i.e.
``n`` shortest-path trees over one shared ``G_all``, rather than ``n²``
independent single-pair queries.  We verify the shared-graph approach
beats rebuilding ``G_{s,t}`` per pair, and that its per-tree cost matches
the single-source run.
"""

from __future__ import annotations

import time

from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from benchmarks.conftest import sparse_wan


def test_all_pairs_beats_pairwise_rebuilds(benchmark, report):
    net = sparse_wan(48, seed=12)
    router = LiangShenRouter(net)
    nodes = net.nodes()

    start = time.perf_counter()
    result = router.route_all_pairs()
    t_all = time.perf_counter() - start

    start = time.perf_counter()
    count = 0
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            try:
                router.route(s, t)
            except NoPathError:
                pass
            count += 1
    t_pairwise = time.perf_counter() - start

    report(
        "COR1: all-pairs strategies (n=48)",
        f"shared G_all + n trees: {t_all * 1e3:9.1f} ms\n"
        f"n^2 single-pair builds: {t_pairwise * 1e3:9.1f} ms "
        f"({count} queries)\n"
        f"advantage: {t_pairwise / t_all:.1f}x",
    )
    assert t_all < t_pairwise, "Corollary 1's strategy lost to naive pairwise"

    benchmark.extra_info["t_all_seconds"] = t_all
    benchmark.extra_info["t_pairwise_seconds"] = t_pairwise
    benchmark(lambda: router.route_tree(nodes[0]))


def test_all_pairs_results_complete(benchmark):
    """Every reachable ordered pair must be present and priced."""
    net = sparse_wan(32, seed=13)
    router = LiangShenRouter(net)
    result = benchmark(lambda: router.route_all_pairs())
    nodes = net.nodes()
    # Strongly connected generator: every ordered pair must be reachable.
    assert len(result.paths) == len(nodes) * (len(nodes) - 1)
    for path in list(result.paths.values())[:50]:
        assert path.evaluate_cost(net) == path.total_cost
