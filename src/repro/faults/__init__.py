"""Chaos layer: seeded fault injection and resilience for the serving stack.

The serving layer (:mod:`repro.service`) answers routing queries over a
network that the provisioning and restoration layers keep mutating; in a
live WDM network those mutations include *failures* — fiber cuts,
per-``(link, λ)`` channel drops, converter-bank outages — plus the
software kind: slow and crashing backends.  This package makes all of
that injectable, deterministic, and survivable (dead server workers are
the server's own business: see :mod:`repro.server.server`):

* :mod:`repro.faults.plan` — seeded, replayable fault schedules
  (:class:`FaultPlan` / :func:`generate_plan`);
* :mod:`repro.faults.injector` — :class:`FaultInjector` applies a plan
  against a live service: degraded network views for the epoch cache,
  per-channel invalidation notifications, and latency/exception
  injection before each backend call of the routing service;
* :mod:`repro.faults.resilience` — :class:`RetryPolicy` (exponential
  backoff, full jitter, deadline budgets) and :class:`CircuitBreaker`
  (closed/open/half-open) that the service wires around its backend;
* :mod:`repro.faults.chaos` — :class:`ChaosSoak`, the time-budgeted soak
  harness behind ``repro chaos``: replays queries against a mutating
  network and asserts the invariants every future scaling PR is held to
  (certificate-valid answers per epoch, flagged staleness, breaker
  discipline, epoch monotonicity, byte-identical re-convergence).
"""

from repro.faults.chaos import ChaosSoak, SoakReport
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, generate_plan
from repro.faults.resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "generate_plan",
    "FaultInjector",
    "RetryPolicy",
    "CircuitBreaker",
    "ChaosSoak",
    "SoakReport",
]
