"""The chaos soak: queries against a mutating network, invariants enforced.

:class:`ChaosSoak` is the harness behind ``repro chaos``.  One soak:

1. builds a :class:`~repro.faults.injector.FaultInjector` over a pristine
   base network and a :class:`~repro.service.service.RoutingService`
   whose network factory is the injector's degraded view (with retry and
   a circuit breaker wired in);
2. replays a seeded query stream, one query at a time, while applying
   a seeded :class:`~repro.faults.plan.FaultPlan` on a virtual-time
   schedule scaled to the wall-clock budget;
3. checks **invariants** on every answer and at the end of the run:

   * every served path passes the router-independent Eq. (1) certificate
     (:func:`repro.verify.certificate.check_certificate`) against the
     network snapshot of the epoch it was computed on — stale answers
     against their (old) epoch, rebuild answers against their own
     snapshot;
   * stale answers are explicitly flagged and their count matches the
     ``service.stale_served`` metric;
   * the cache epoch is monotonically non-decreasing;
   * after every network-resource fault, a parity probe demands the
     cache's next answers — usually served off a patched ``G_all`` —
     agree hop for hop with a fresh router on the degraded view;
   * circuit-breaker transitions follow the legal state machine, and a
     deterministic drill drives a full open → half-open → closed cycle;
   * after the last fault clears, the service re-converges to
     **byte-identical** routes against a fresh router on the pristine
     network, within a bounded recovery window.

4. on any violation, exits non-ok; certificate violations are shrunk via
   :func:`repro.verify.shrink.shrink_scenario` (when reproducible) and
   persisted to a corpus directory for replay.

An intentionally broken backend (``cost_perturbation``) is the
self-test: the soak must catch it, shrink it, and persist it — proving
the certificate oracle actually guards the serving path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Hashable

from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.core.semilightpath import Semilightpath
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    NoPathError,
    TransientBackendError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan, generate_plan
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.service.service import RoutingService
from repro.verify.certificate import check_certificate, costs_close
from repro.wdm.events import EventLog

__all__ = ["ChaosSoak", "SoakReport"]

NodeId = Hashable

#: Fault kinds that change the network (vs engine-level latency/exception
#: faults).  Each one triggers a parity probe.
_NETWORK_FAULT_KINDS = frozenset({
    "link_fail",
    "link_recover",
    "channel_fail",
    "channel_recover",
    "converter_fail",
    "converter_recover",
})

#: Legal circuit-breaker transitions (old state -> new state).
_LEGAL_TRANSITIONS = {
    (CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
    (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
    (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
    (CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN),
}


@dataclass
class SoakReport:
    """Everything one soak observed, plus the violations it found."""

    seed: int
    duration: float
    elapsed: float = 0.0
    queries: int = 0
    served_fresh: int = 0
    served_stale: int = 0
    served_rebuild: int = 0
    no_path: int = 0
    deadline_misses: int = 0
    unserved: int = 0
    faults_applied: dict[str, int] = field(default_factory=dict)
    breaker_transitions: list[tuple[str, str]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    violations_total: int = 0
    persisted: list[str] = field(default_factory=list)
    recovery_pairs_checked: int = 0
    recovery_seconds: float = 0.0
    parity_checks: int = 0
    parity_mismatches: int = 0
    cache_patches: int = 0
    cache_rebuilds: int = 0
    event_log: EventLog | None = None

    #: Stored-violation cap; ``violations_total`` keeps the true count.
    MAX_STORED_VIOLATIONS = 200

    @property
    def ok(self) -> bool:
        return self.violations_total == 0

    def add_violation(self, message: str) -> None:
        self.violations_total += 1
        if len(self.violations) < self.MAX_STORED_VIOLATIONS:
            self.violations.append(message)

    def format(self) -> str:
        lines = [
            f"chaos soak seed={self.seed}: {self.queries} queries in "
            f"{self.elapsed:.1f}s of {self.duration:.0f}s budget",
            f"  served fresh={self.served_fresh} stale={self.served_stale} "
            f"rebuild={self.served_rebuild} no-path={self.no_path} "
            f"deadline-missed={self.deadline_misses} unserved={self.unserved}",
            "  faults applied: "
            + (
                " ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.faults_applied.items())
                )
                or "none"
            ),
            "  breaker transitions: "
            + (
                " ".join(f"{a}->{b}" for a, b in self.breaker_transitions)
                or "none"
            ),
            f"  recovery: {self.recovery_pairs_checked} pair(s) byte-identical "
            f"vs fresh router in {self.recovery_seconds:.2f}s",
            f"  cache: {self.parity_checks} parity probe(s), "
            f"{self.parity_mismatches} mismatch(es); patched "
            f"{self.cache_patches}x, rebuilt {self.cache_rebuilds}x",
        ]
        if self.violations_total:
            shown = len(self.violations)
            label = (
                f"{self.violations_total}"
                if shown == self.violations_total
                else f"{self.violations_total}, first {shown} shown"
            )
            lines.append(f"  VIOLATIONS ({label}):")
            lines.extend(f"    - {v}" for v in self.violations)
            for path in self.persisted:
                lines.append(f"  persisted repro: {path}")
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


class _PerturbedCache:
    """Backend-bug fixture: delegates to the real cache, misprices answers.

    The soak's self-test installs this as the *service's* cache, so the
    perturbed cost flows through ``route``/``route_resilient`` and must be
    caught by the certificate check — never by the proxy itself.  The
    soak's own probes keep reading the real cache.
    """

    def __init__(self, inner, delta: float) -> None:
        self._inner = inner
        self._delta = delta

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _perturb(self, path: Semilightpath) -> Semilightpath:
        return Semilightpath(hops=path.hops, total_cost=path.total_cost + self._delta)

    def route_with_epoch(self, source, target):
        path, epoch = self._inner.route_with_epoch(source, target)
        return self._perturb(path), epoch

    def route(self, source, target):
        return self.route_with_epoch(source, target)[0]

    def route_rebuild(self, source, target):
        path, network = self._inner.route_rebuild(source, target)
        return self._perturb(path), network


class ChaosSoak:
    """One time-budgeted chaos run against one base network.

    Parameters
    ----------
    network:
        The pristine base network (copied; never mutated).
    seed:
        Drives the fault plan, the query stream, and the retry jitter.
    duration:
        Wall-clock budget in seconds; the fault plan's virtual timeline
        is scaled onto it.
    plan:
        A prebuilt :class:`FaultPlan`; drawn from the seed when omitted.
    num_faults:
        Faults to draw when generating the plan.
    query_timeout:
        Per-query deadline (misses are counted, not violations — a soak
        on a loaded box must not flake).
    cost_perturbation:
        When nonzero, installs the intentionally broken backend — the
        soak is then *expected* to report certificate violations.
    corpus_dir:
        Where certificate-violation repros are persisted (shrunk when
        reproducible).  ``None`` disables persistence.
    max_recovery_pairs:
        Cap on the pairs compared against a fresh router at the end.

    Every network-resource fault is followed by a parity probe: the
    cache's next answer — usually served off a *patched* ``G_all``
    rather than a rebuild — must agree hop-for-hop with a fresh router
    on the current degraded view.  Probes are logged to the event log as
    ``parity_check`` events, tagged ``patched``, ``rebuilt`` or
    ``reused``, and any mismatch is a violation.
    """

    def __init__(
        self,
        network: WDMNetwork,
        seed: int = 0,
        duration: float = 30.0,
        plan: FaultPlan | None = None,
        num_faults: int = 20,
        query_timeout: float = 10.0,
        cost_perturbation: float = 0.0,
        corpus_dir=None,
        max_recovery_pairs: int = 64,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be > 0")
        if len(network.nodes()) < 2:
            raise ValueError("chaos soak needs at least two nodes")
        self.base = network.copy()
        self.seed = seed
        self.duration = duration
        self.plan = plan if plan is not None else generate_plan(
            self.base, seed=seed, num_faults=num_faults
        )
        self.query_timeout = query_timeout
        self.cost_perturbation = cost_perturbation
        self.corpus_dir = corpus_dir
        self.max_recovery_pairs = max_recovery_pairs
        self.report = SoakReport(seed=seed, duration=duration)

        self.event_log = EventLog()
        self.injector = FaultInjector(self.base, observer=self.event_log)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.002, max_delay=0.02, seed=seed
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, reset_timeout=0.25
        )
        # Chain any caller-provided transition callback behind the recorder.
        inner_cb = self.breaker._on_transition

        def record_transition(old: str, new: str) -> None:
            self.report.breaker_transitions.append((old, new))
            if inner_cb is not None:
                inner_cb(old, new)

        self.breaker._on_transition = record_transition

        #: Epoch -> the exact network snapshot the cache rebuilt against.
        self.snapshots: dict[int, WDMNetwork] = {}
        self.service = RoutingService(
            self._snapshotting_factory,
            retry=self.retry,
            breaker=self.breaker,
        )
        #: The real epoch cache: parity probes and counters read it even
        #: while the self-test's perturbed proxy serves the queries.
        self.cache = self.service.cache
        if cost_perturbation:
            self.service.cache = _PerturbedCache(self.cache, cost_perturbation)
        self.injector.attach(self.service)
        self._rng = random.Random(seed ^ 0x5EED)
        self._pairs = self._query_pool()
        self._max_epoch_seen = -1
        self._persisted_once = False
        #: Pairs that served a fresh answer at least once (drill targets).
        self._reachable: list[tuple[NodeId, NodeId]] = []
        self._reachable_set: set[tuple[NodeId, NodeId]] = set()

    # -- construction helpers -------------------------------------------------

    def _snapshotting_factory(self) -> WDMNetwork:
        """Cache network factory: degraded view, recorded per epoch.

        Called by the epoch cache under its lock during a rebuild; the
        cache's epoch at that instant is exactly the ``built_epoch`` the
        resulting answers will carry, so the certificate check can
        revalidate every answer against the network as it existed at
        answer time.
        """
        view = self.injector.network_view()
        self.snapshots[self.service.cache.epoch if hasattr(self, "service") else 0] = view
        return view

    def _query_pool(self) -> list[tuple[NodeId, NodeId]]:
        nodes = self.base.nodes()
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        self._rng.shuffle(pairs)
        return pairs[: max(16, min(len(pairs), 128))]

    # -- run ------------------------------------------------------------------

    def run(self) -> SoakReport:
        started = time.monotonic()
        self._warm_phase()
        self._storm_phase(started)
        self._drain_engine_faults()
        self._breaker_drill()
        self._recovery_phase()
        self.report.faults_applied = self.plan.kinds()
        self._check_breaker_log()
        stale_metric = self.service.metrics.counter("service.stale_served").value
        if stale_metric != self.report.served_stale:
            self.report.add_violation(
                f"stale accounting mismatch: soak saw {self.report.served_stale} "
                f"stale answers, service.stale_served metric says {stale_metric}"
            )
        cache_counters = self.cache.counters()
        self.report.cache_patches = cache_counters.get("patches", 0)
        self.report.cache_rebuilds = cache_counters.get("rebuilds", 0)
        self.report.elapsed = time.monotonic() - started
        self.report.event_log = self.event_log
        return self.report

    def _warm_phase(self) -> None:
        """Route a first sweep before any fault, seeding last-good answers."""
        for source, target in self._pairs[: min(32, len(self._pairs))]:
            self._query(source, target)

    def _storm_phase(self, started: float) -> None:
        """The main loop: queries while the plan's timeline plays out."""
        applied_through = 0.0
        deadline = started + self.duration
        while True:
            now = time.monotonic()
            frac = min(1.0, (now - started) / self.duration)
            for event in self.plan.due(applied_through, frac):
                self._apply_event(event)
            applied_through = frac
            if frac >= 1.0 or now >= deadline:
                break
            for _ in range(8):
                source, target = self._rng.choice(self._pairs)
                self._query(source, target)
            self._observe_epoch()
        # Force any events the wall clock skipped (always includes the
        # trailing recoveries), so the soak ends on the pristine network.
        for event in self.plan.due(applied_through, 1.0):
            self._apply_event(event)

    def _apply_event(self, event: FaultEvent) -> None:
        epoch_before = self.service.epoch
        self.injector.apply(event)
        if event.kind in _NETWORK_FAULT_KINDS:
            # Patched refreshes never call the cache factory (the serving
            # path skips the snapshot copy), so the epoch-keyed audit map
            # is fed here instead: the injector mutates fault state before
            # notifying, hence the post-event view is exactly the network
            # at every epoch this event's notifications bumped through.
            view = self.injector.network_view()
            for epoch in range(epoch_before + 1, self.service.epoch + 1):
                self.snapshots[epoch] = view
        if event.kind in _NETWORK_FAULT_KINDS:
            self._parity_probe(event)

    def _parity_probe(self, event: FaultEvent) -> None:
        """Patched answers == fresh-router answers.

        Runs right after a network-resource fault lands.  The next cache
        query applies the queued delta (or falls back to a rebuild); its
        answer for a couple of pairs must match — hop for hop — a fresh
        :class:`LiangShenRouter` built on the injector's current view.
        The probe reads the real cache directly, bypassing the service's
        guarded call, so injected latency/exception faults and the
        perturbed self-test backend cannot blur what is being measured.
        """
        cache = self.cache
        view = self.injector.network_view()
        fresh = LiangShenRouter(view)
        before = cache.counters()
        mode = None
        pairs = (self._reachable or self._pairs)[:2]
        for source, target in pairs:
            try:
                served = cache.route(source, target)
            except NoPathError:
                served = None
            if mode is None:
                after = cache.counters()
                if after["patches"] > before["patches"]:
                    mode = "patched"
                elif after["rebuilds"] > before["rebuilds"]:
                    mode = "rebuilt"
                else:
                    mode = "reused"  # epoch unchanged since last refresh
            try:
                expected = fresh.route(source, target).path
            except NoPathError:
                expected = None
            ok = (served is None) == (expected is None) and (
                served is None
                or (
                    served.hops == expected.hops
                    and costs_close(served.total_cost, expected.total_cost)
                )
            )
            self.report.parity_checks += 1
            self.event_log(
                "parity_check",
                event.at,
                source=source,
                target=target,
                fault=event.kind,
                mode=mode,
                ok=ok,
            )
            if not ok:
                self.report.parity_mismatches += 1
                self.report.add_violation(
                    f"parity mismatch ({mode}, after "
                    f"{event.kind}) for {source!r}->{target!r}: cache "
                    f"{served.hops if served else None}, fresh router "
                    f"{expected.hops if expected else None}"
                )

    def _observe_epoch(self) -> None:
        epoch = self.service.epoch
        if epoch < self._max_epoch_seen:
            self.report.add_violation(
                f"cache epoch went backwards: {self._max_epoch_seen} -> {epoch}"
            )
        self._max_epoch_seen = max(self._max_epoch_seen, epoch)

    # -- per-query invariant --------------------------------------------------

    def _query(self, source: NodeId, target: NodeId) -> None:
        self.report.queries += 1
        try:
            outcome = self.service.route_resilient(
                source, target, timeout=self.query_timeout
            )
        except NoPathError:
            self.report.no_path += 1
            return
        except DeadlineExceeded:
            self.report.deadline_misses += 1
            return
        except (TransientBackendError, CircuitOpenError):
            # No stale answer and the rebuild hit the same fault — the
            # query is shed, which is legal degraded behavior.
            self.report.unserved += 1
            return
        if outcome.mode == "fresh":
            self.report.served_fresh += 1
            if (source, target) not in self._reachable_set:
                self._reachable_set.add((source, target))
                self._reachable.append((source, target))
        elif outcome.mode == "stale":
            self.report.served_stale += 1
        else:
            self.report.served_rebuild += 1
        network = (
            outcome.snapshot
            if outcome.snapshot is not None
            else self.snapshots.get(outcome.epoch)
        )
        if network is None:
            self.report.add_violation(
                f"answer for {source!r}->{target!r} carries unknown epoch "
                f"{outcome.epoch} (mode={outcome.mode})"
            )
            return
        certificate = check_certificate(network, outcome.path, source, target)
        if not certificate.ok:
            detail = "; ".join(certificate.violations)
            self.report.add_violation(
                f"certificate violation ({outcome.mode}, epoch {outcome.epoch}) "
                f"for {source!r}->{target!r}: {detail}"
            )
            self._persist_violation(network, source, target)

    # -- scheduled sub-exercises ----------------------------------------------

    def _drain_engine_faults(self, budget: float = 5.0) -> None:
        """Consume any still-pending injected latency/exception faults.

        An open breaker blocks the fault hook (fail-fast never reaches
        the backend), and it only moves to half-open when a call probes
        it — so the drain keeps querying, pausing briefly while calls
        fail fast, and each half-open probe consumes one pending fault.
        """
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            if self.injector.active_faults()["engine_pending"] == 0:
                return
            source, target = self._rng.choice(self._pairs)
            self._query(source, target)
            if self.breaker.state != CircuitBreaker.CLOSED:
                time.sleep(0.02)
        if self.injector.active_faults()["engine_pending"]:
            self.report.add_violation(
                "injected engine faults were never consumed by the backend"
            )

    def _settle_breaker(self, budget: float = 3.0) -> None:
        """Best-effort: get the breaker CLOSED with zero recorded failures.

        The drill's burst arithmetic assumes a clean starting state;
        storm-era failures may have left the count nonzero or the
        breaker open.
        """
        source, target = (
            self._reachable[0] if self._reachable else self._pairs[0]
        )
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            if (
                self.breaker.state == CircuitBreaker.CLOSED
                and self.breaker.consecutive_failures == 0
                and self.injector.active_faults()["engine_pending"] == 0
            ):
                return
            self._query(source, target)
            if self.breaker.state != CircuitBreaker.CLOSED:
                time.sleep(0.02)

    def _breaker_drill(self) -> None:
        """Deterministically drive one full open → half-open → closed cycle.

        Random storms may or may not trip the breaker (retries absorb
        short bursts); production confidence needs the whole state
        machine exercised every soak.
        """
        # Consecutive-failure accounting: a query whose every attempt
        # fails contributes max_attempts failures, and any successful
        # attempt resets the count.  Sizing the burst as the smallest
        # multiple of max_attempts >= failure_threshold guarantees the
        # breaker opens mid-burst with at most max_attempts - 1 faults
        # left over for the drain below.
        per_query = self.retry.max_attempts
        threshold = self.breaker.failure_threshold
        burst = ((threshold + per_query - 1) // per_query) * per_query
        self._settle_breaker()
        self.injector.apply(FaultEvent(1.0, "exception", amount=float(burst)))
        # Drill a pair known to be reachable (corpus networks can have
        # disconnected pairs); any pair still consumes the fault burst.
        source, target = (
            self._reachable[0] if self._reachable else self._pairs[0]
        )
        for _ in range(burst // per_query + 2):
            if self.breaker.state == CircuitBreaker.OPEN:
                break
            self._query(source, target)
        if self.breaker.state != CircuitBreaker.OPEN:
            self.report.add_violation(
                f"breaker drill failed to open the circuit "
                f"(state={self.breaker.state!r})"
            )
            # Clear any leftover injected faults before recovery checks.
            self._drain_engine_faults()
            return
        # While open: served answers must be degraded, not fresh.
        self.report.queries += 1
        try:
            outcome = self.service.route_resilient(source, target)
        except NoPathError:
            self.report.no_path += 1
            outcome = None
        if outcome is not None:
            if outcome.mode == "fresh":
                self.report.add_violation(
                    "open breaker served a fresh backend answer"
                )
            if outcome.mode == "stale":
                self.report.served_stale += 1
            elif outcome.mode == "rebuild":
                self.report.served_rebuild += 1
        # Let the reset timeout elapse, clear any leftover faults
        # (probe-by-probe), then one clean query closes the breaker.
        time.sleep(self.breaker.reset_timeout + 0.02)
        self._drain_engine_faults()
        if self.breaker.state == CircuitBreaker.OPEN:
            time.sleep(self.breaker.reset_timeout + 0.02)
        self._query(source, target)
        if self.breaker.state != CircuitBreaker.CLOSED:
            self.report.add_violation(
                f"breaker did not close after a successful probe "
                f"(state={self.breaker.state!r})"
            )

    def _recovery_phase(self) -> None:
        """After the storm: pristine network, byte-identical re-convergence."""
        if not self.injector.pristine:
            self.report.add_violation(
                f"plan finished but faults are still active: "
                f"{self.injector.active_faults()}"
            )
            return
        started = time.monotonic()
        self.service.invalidate()
        fresh = LiangShenRouter(self.base.copy())
        checked = 0
        for source, target in self._pairs[: self.max_recovery_pairs]:
            try:
                served = self.service.route(source, target, timeout=self.query_timeout)
            except NoPathError:
                served = None
            except (TransientBackendError, CircuitOpenError) as exc:
                # The plan is done and the drains ran; a transient error
                # here means bounded recovery failed.
                self.report.add_violation(
                    f"post-recovery query {source!r}->{target!r} still "
                    f"failing: {type(exc).__name__}: {exc}"
                )
                continue
            try:
                expected = fresh.route(source, target).path
            except NoPathError:
                expected = None
            checked += 1
            if (served is None) != (expected is None):
                self.report.add_violation(
                    f"post-recovery reachability mismatch for "
                    f"{source!r}->{target!r}: service={served!r} "
                    f"router={expected!r}"
                )
                continue
            if served is None:
                continue
            if self.cost_perturbation:
                continue  # the injected backend bug owns this mismatch
            if served.hops != expected.hops or not costs_close(
                served.total_cost, expected.total_cost
            ):
                self.report.add_violation(
                    f"post-recovery route for {source!r}->{target!r} is not "
                    f"byte-identical to a fresh router: served "
                    f"{served.hops} @ {served.total_cost!r}, expected "
                    f"{expected.hops} @ {expected.total_cost!r}"
                )
        self.report.recovery_pairs_checked = checked
        self.report.recovery_seconds = time.monotonic() - started

    # -- failure forensics ----------------------------------------------------

    def _check_breaker_log(self) -> None:
        for old, new in self.report.breaker_transitions:
            if (old, new) not in _LEGAL_TRANSITIONS:
                self.report.add_violation(
                    f"illegal breaker transition {old} -> {new}"
                )

    def _persist_violation(
        self, network: WDMNetwork, source: NodeId, target: NodeId
    ) -> None:
        """Shrink (when reproducible) and persist one certificate repro."""
        if self.corpus_dir is None or self._persisted_once:
            return
        self._persisted_once = True
        from repro.verify.corpus import save_case
        from repro.verify.scenarios import Scenario
        from repro.verify.shrink import shrink_scenario

        scenario = Scenario(
            network=network,
            queries=((source, target),),
            seed=None,
            description=(
                f"chaos soak seed={self.seed}: certificate violation on the "
                f"serving path"
            ),
        )
        if self._scenario_fails(scenario):
            scenario = shrink_scenario(scenario, self._scenario_fails)
        path = save_case(
            self.corpus_dir,
            scenario,
            disagreements=[self.report.violations[-1]],
        )
        self.report.persisted.append(str(path))

    def _scenario_fails(self, scenario) -> bool:
        """Does the live backend's bug reproduce on *scenario* standalone?

        Rebuilds the same serving backend shape — a router answer passed
        through the same perturbation the service saw — and certificate-
        checks it, so the shrinker minimizes exactly the observed defect.
        """
        router = LiangShenRouter(scenario.network)
        for source, target in scenario.queries:
            try:
                path = router.route(source, target).path
            except NoPathError:
                continue
            if self.cost_perturbation:
                path = Semilightpath(
                    hops=path.hops,
                    total_cost=path.total_cost + self.cost_perturbation,
                )
            if not check_certificate(scenario.network, path, source, target).ok:
                return True
        return False

