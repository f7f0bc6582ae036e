"""Chaos soak against the sharded tier: faults, gossip, verification.

:class:`ClusterSoak` boots an N×R tier, drives background batched
load through the :class:`~repro.cluster.frontend.FrontendRouter`, and
replays a seeded :class:`~repro.faults.plan.FaultPlan` as wire PATCHes —
one replica per shard receives each patch, gossip must carry it to the
rest.  Verification is exact, not statistical:

* every fault event advances an **epoch-indexed oracle**: the soak keeps
  one :class:`~repro.faults.injector.FaultInjector` and snapshots
  ``network_view()`` after each event, so fault state ``k`` has a
  concrete degraded network.  A replica that has applied ``k`` events
  sits at segment epoch ``2k`` (one seqlock bracket per accepted
  patch), so a served answer stamped with epoch ``e`` must be
  byte-identical to a fresh
  :class:`~repro.core.routing.LiangShenRouter` run on snapshot
  ``e // 2`` — and must re-validate under the router-independent
  Eq. 1 certificate;
* after each event the soak polls **gossip convergence**: every replica
  of every shard must reach ``delta_epoch == events applied so far``
  (exactly once each — a lost patch stalls below, a double-applied one
  overshoots);
* a **gossip parity probe** then routes a pair at every replica of one
  shard directly and demands byte-identical answers across replicas.

The plan's kinds are restricted to network-resource events — engine
faults (latency/exception) target the in-process service stack, and
worker crashes have their own kill-based suite in ``tests/server``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.cluster.frontend import FrontendRouter
from repro.cluster.loadgen import all_pairs_workload
from repro.cluster.shards import ShardManager
from repro.core.routing import LiangShenRouter
from repro.exceptions import RemoteRouterError, SemilightError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, generate_plan
from repro.server.client import RouterClient
from repro.shortestpath.shared import leaked_segments
from repro.verify.certificate import check_certificate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["ClusterSoak", "ClusterSoakReport", "event_to_patch_ops"]

NodeId = Hashable


def event_to_patch_ops(
    network: "WDMNetwork", event: FaultEvent
) -> list[tuple[str, tuple]]:
    """Translate one network-resource fault event into wire PATCH ops.

    The injector fails *fibers* (both directions) while the overlay's
    ``fail_link`` masks one directed link, so fiber events expand to the
    directions that exist in *network*.  Channel and converter events
    map one-to-one.
    """
    kind = event.kind
    if kind in ("link_fail", "link_recover"):
        op = "fail_link" if kind == "link_fail" else "recover_link"
        return [
            (op, (tail, head))
            for tail, head in (
                (event.tail, event.head),
                (event.head, event.tail),
            )
            if network.has_link(tail, head)
        ]
    if kind in ("channel_fail", "channel_recover"):
        op = "fail_channel" if kind == "channel_fail" else "recover_channel"
        return [(op, (event.tail, event.head, event.wavelength))]
    if kind in ("converter_fail", "converter_recover"):
        op = (
            "fail_converter"
            if kind == "converter_fail"
            else "recover_converter"
        )
        return [(op, (event.node,))]
    raise ValueError(f"not a network-resource event: {kind!r}")


@dataclass
class ClusterSoakReport:
    """Outcome of one tier soak; ``ok`` gates the CI job."""

    shards: int
    replicas: int
    seed: int
    events_applied: int = 0
    ops_applied: int = 0
    queries: int = 0
    verified: int = 0
    certificate_failures: int = 0
    mismatches: int = 0
    convergence_failures: int = 0
    parity_failures: int = 0
    shed: int = 0
    errors: int = 0
    gossip: dict[str, int] = field(default_factory=dict)
    leaked: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.leaked

    def to_dict(self) -> dict[str, Any]:
        out = dict(self.__dict__)
        out["ok"] = self.ok
        return out


class ClusterSoak:
    """Seeded fault storm against a live N×R tier with exact oracles.

    Parameters
    ----------
    network:
        The network the tier serves; also seeds the oracle snapshots.
    shards / replicas:
        Tier shape (see :class:`~repro.cluster.shards.ShardManager`);
        every replica runs one worker process.
    seconds:
        Wall-clock budget for the storm phase; events from the seeded
        plan fire at their scheduled fraction of this budget.
    num_faults:
        Faults drawn into the plan (recoveries implied; plan ends
        pristine).
    seed:
        Drives the plan, the workload shuffle, and probe sampling.
    load_concurrency / verify_sample:
        Background load threads (one batch in flight each), and how
        many verification probes to run per convergence window.
    """

    def __init__(
        self,
        network: "WDMNetwork",
        *,
        shards: int = 2,
        replicas: int = 2,
        seconds: float = 30.0,
        num_faults: int = 8,
        seed: int = 1998,
        load_concurrency: int = 2,
        verify_sample: int = 8,
    ) -> None:
        self._network = network
        self._shards = shards
        self._replicas = replicas
        self._seconds = seconds
        self._num_faults = num_faults
        self._seed = seed
        self._load_concurrency = load_concurrency
        self._verify_sample = verify_sample

    def run(self) -> ClusterSoakReport:
        report = ClusterSoakReport(
            shards=self._shards, replicas=self._replicas, seed=self._seed
        )
        # Audit residue the soak itself creates — other live servers in
        # this process (tests run tiers side by side) own their segments.
        segments_before = set(leaked_segments())
        plan = generate_plan(
            self._network,
            seed=self._seed,
            num_faults=self._num_faults,
            kinds=("link", "channel", "converter"),
        )
        injector = FaultInjector(self._network)
        # snapshots[k] = the network after k applied events; oracles are
        # built lazily (one LiangShenRouter per fault state actually hit).
        snapshots: list["WDMNetwork"] = [injector.network_view()]
        oracles: dict[int, LiangShenRouter] = {}
        ops_per_state: list[int] = [0]
        pairs = all_pairs_workload(self._network, seed=self._seed)
        rng = random.Random(self._seed)

        def oracle(state: int) -> LiangShenRouter:
            router = oracles.get(state)
            if router is None:
                router = oracles[state] = LiangShenRouter(snapshots[state])
            return router

        with ShardManager(
            self._network,
            shards=self._shards,
            replicas=self._replicas,
        ) as manager:
            frontend = FrontendRouter(manager)
            stop_load = threading.Event()
            load_lock = threading.Lock()

            def load_worker() -> None:
                cursor = rng.randrange(len(pairs))
                while not stop_load.is_set():
                    batch = [
                        pairs[(cursor + k) % len(pairs)] for k in range(32)
                    ]
                    cursor = (cursor + 32) % len(pairs)
                    try:
                        frontend.route_batch(batch)
                    except SemilightError:
                        with load_lock:
                            report.errors += 1
                        continue
                    with load_lock:
                        report.queries += len(batch)

            load_threads = [
                threading.Thread(
                    target=load_worker, name=f"soak-load-{i}", daemon=True
                )
                for i in range(self._load_concurrency)
            ]
            for thread in load_threads:
                thread.start()

            def verify_probes(count: int) -> None:
                """Sampled end-to-end checks through the frontend."""
                for _ in range(count):
                    source, target = pairs[rng.randrange(len(pairs))]
                    try:
                        path, epoch = frontend.route_with_epoch(source, target)
                    except RemoteRouterError:
                        report.errors += 1
                        continue
                    report.verified += 1
                    state = epoch // 2
                    if state >= len(snapshots):
                        report.violations.append(
                            f"epoch {epoch} beyond applied fault state"
                        )
                        continue
                    try:
                        expected = oracle(state).route(source, target)
                        expected_path = expected.path
                    except SemilightError:
                        expected_path = None
                    if path is None or expected_path is None:
                        if (path is None) != (expected_path is None):
                            report.mismatches += 1
                            report.violations.append(
                                f"reachability mismatch {source!r}->{target!r} "
                                f"at state {state}"
                            )
                        continue
                    if (
                        path.hops != expected_path.hops
                        or path.total_cost != expected_path.total_cost
                    ):
                        report.mismatches += 1
                        report.violations.append(
                            f"path mismatch {source!r}->{target!r} "
                            f"at state {state}"
                        )
                        continue
                    cert = check_certificate(
                        snapshots[state], path, source, target
                    )
                    if not cert.ok:
                        report.certificate_failures += 1
                        report.violations.append(
                            f"certificate violation {source!r}->{target!r} "
                            f"at state {state}"
                        )

            def parity_probe() -> None:
                """Direct per-replica routes must agree byte-for-byte."""
                source, target = pairs[rng.randrange(len(pairs))]
                shard = manager.shard_for(source)
                answers = []
                for address in manager.replica_addresses(shard):
                    client = RouterClient(address)
                    try:
                        answers.append(client.route_with_epoch(source, target))
                    finally:
                        client.close()
                baseline = answers[0]
                for answer in answers[1:]:
                    same = (
                        (answer[0] is None) == (baseline[0] is None)
                        and answer[1] == baseline[1]
                        and (
                            answer[0] is None
                            or (
                                answer[0].hops == baseline[0].hops
                                and answer[0].total_cost
                                == baseline[0].total_cost
                            )
                        )
                    )
                    if not same:
                        report.parity_failures += 1
                        report.violations.append(
                            f"replica divergence on shard {shard} for "
                            f"{source!r}->{target!r}"
                        )

            # Warm phase: verified load against the pristine tier.
            verify_probes(self._verify_sample)
            parity_probe()

            # Storm: replay the plan against wall-clock fractions of the
            # budget, verifying after each convergence window.
            begin = time.monotonic()
            total_ops = 0
            try:
                for event in plan.events:
                    wait = begin + event.at * self._seconds - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                    ops = event_to_patch_ops(self._network, event)
                    # Dark-link and down-converter residue can make an op
                    # inexpressible in the overlay; the oracle is built
                    # from the injector, so expressibility only affects
                    # the epoch arithmetic, never correctness — and the
                    # restricted kinds here are always expressible.
                    frontend.patch(ops)
                    total_ops += len(ops)
                    injector.apply(event)
                    snapshots.append(injector.network_view())
                    ops_per_state.append(total_ops)
                    report.events_applied += 1
                    report.ops_applied = total_ops
                    if not manager.wait_converged(total_ops, timeout=10.0):
                        report.convergence_failures += 1
                        report.violations.append(
                            f"gossip did not converge after event "
                            f"{report.events_applied} "
                            f"({event.describe()}): {manager.delta_epochs()} "
                            f"!= {total_ops}"
                        )
                    verify_probes(self._verify_sample)
                    parity_probe()
            finally:
                stop_load.set()
                for thread in load_threads:
                    thread.join(timeout=10.0)

            # Drain: the plan ends pristine; the tier must agree.
            if not injector.pristine:
                report.violations.append("plan did not end pristine")
            verify_probes(self._verify_sample)
            parity_probe()
            gossip_totals = {"forwarded": 0, "failed": 0, "duplicates": 0}
            for server in manager.all_servers():
                stats = server._stats()["gossip"]
                for key in gossip_totals:
                    gossip_totals[key] += stats[key]
            report.gossip = gossip_totals
            if gossip_totals["failed"]:
                report.violations.append(
                    f"{gossip_totals['failed']} gossip forward(s) failed"
                )
            frontend.close()

        report.leaked = sorted(set(leaked_segments()) - segments_before)
        if report.leaked:
            report.violations.append(
                f"leaked shared segments: {report.leaked}"
            )
        return report
