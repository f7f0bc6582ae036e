"""Request-driven routing service above ``core`` / ``wdm`` / ``topology``.

The serving subsystem for the ROADMAP's production-scale goal: instead of
rebuilding the Liang–Shen auxiliary graph per query, a long-lived
:class:`RoutingService` memoizes ``G_all`` and per-source shortest-path
trees behind a monotonically increasing **network epoch**, answers each
query on its caller's thread with deadlines, retry and a circuit
breaker, and reports cache/backend/latency metrics.

Layers (see ``docs/service.md``):

* :mod:`repro.service.metrics` — counters, gauges, histograms, registry.
* :mod:`repro.service.cache` — :class:`EpochRouterCache`, the
  epoch-versioned ``G_all`` / tree cache: full invalidation rebuilds,
  per-resource notifications patch ``G_all`` and repair trees in place.
* :mod:`repro.service.service` — :class:`RoutingService`, the facade the
  provisioning layer and the CLI use.
"""

from repro.service.cache import EpochRouterCache
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.service import RoutingService

__all__ = [
    "RoutingService",
    "EpochRouterCache",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
]
