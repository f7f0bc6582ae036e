"""SERVE — the routing service's warm-cache amortization and correctness.

Acceptance for the serving subsystem: on a static network, repeated
queries through :class:`~repro.service.RoutingService` must run at least
5x faster than constructing a :class:`LiangShenRouter` per query (in
practice the gap is orders of magnitude — a warm query is one dict
lookup), and the answers must stay *identical* to per-query routing
costs.  After an invalidation, the cache must return byte-identical
trees to a freshly built cold cache.
"""

from __future__ import annotations

import math
import time

from benchmarks.conftest import sparse_wan
from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.service import EpochRouterCache, RoutingService


def _query_pairs(net, repeats: int):
    nodes = net.nodes()
    sources = nodes[:4]
    pairs = [(s, t) for s in sources for t in nodes if s != t]
    return pairs * repeats


def test_warm_cache_beats_per_query_construction(report):
    net = sparse_wan(72, seed=41)
    pairs = _query_pairs(net, repeats=3)

    service = RoutingService(net)
    start = time.perf_counter()
    warm_costs = [service.cost(s, t) for s, t in pairs]
    warm_time = time.perf_counter() - start

    start = time.perf_counter()
    cold_costs = []
    for s, t in pairs:
        router = LiangShenRouter(net)  # per-query construction
        try:
            cold_costs.append(router.route(s, t).cost)
        except NoPathError:
            cold_costs.append(math.inf)
    cold_time = time.perf_counter() - start

    snap = service.metrics_snapshot()

    speedup = cold_time / warm_time
    report(
        "SERVE: warm RoutingService vs per-query router construction "
        f"(n=72, {len(pairs)} queries)",
        f"warm cache : {warm_time * 1e3:8.2f} ms  "
        f"(hits={snap['cache.hits']} misses={snap['cache.misses']})\n"
        f"per-query  : {cold_time * 1e3:8.2f} ms  (rebuilds G_(s,t) each time)\n"
        f"speedup    : {speedup:6.1f}x",
    )
    assert warm_costs == cold_costs  # identical optima
    assert speedup >= 5.0  # acceptance floor; typically far higher


def test_invalidated_cache_byte_identical_to_cold(report):
    net = sparse_wan(48, seed=42)
    nodes = net.nodes()

    warm = EpochRouterCache(net)
    for source in nodes:
        warm.tree(source)  # fully warm
    warm.invalidate()

    start = time.perf_counter()
    cold = EpochRouterCache(net)
    mismatches = sum(
        1 for source in nodes if warm.tree(source) != cold.tree(source)
    )
    elapsed = time.perf_counter() - start

    report(
        "SERVE: post-invalidation equivalence (n=48, all sources)",
        f"compared {len(nodes)} trees in {elapsed * 1e3:.1f} ms: "
        f"{mismatches} mismatches (epoch {warm.epoch}, "
        f"rebuilds {warm.rebuilds})",
    )
    assert mismatches == 0
    assert warm.epoch == 1 and warm.rebuilds == 2
