"""served_steady and served_churn: a closed loop against the sharded tier.

The tier (``tier.py``) runs in a process of its own; this process is the
load generator and reaches it only through ``FrontendRouter``.  Two
caller threads each keep one single-pair ``route_with_epoch`` request in
flight, walking a seeded shuffle of every ordered pair.  In
served_churn caller 0 also sends one fault patch after every
``PATCH_EVERY`` of its requests; the patches replay a seeded fail/recover
plan (cycled if a run uses it all up, which is sound because a plan
ends on the pristine network).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import measure
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: Longest UDS path the kernel accepts, less the name RouterServer adds.
_UDS_ROOM = 107 - len("/repro_serve_XXXXXXXX/router.sock")


class Tier:
    """A tier process started with ``tier.py``."""

    def __init__(self, run_dir: str, trace_dir: str | None) -> None:
        env = dict(os.environ)
        tmp = os.path.join(run_dir, "tmp")
        # Keep the tier's socket files inside the run directory when the
        # path fits in a UDS address; they are removed on close.
        if len(tmp) <= _UDS_ROOM:
            os.makedirs(tmp, exist_ok=True)
            env["TMPDIR"] = tmp
        cmd = [sys.executable, os.path.join(HERE, "tier.py")]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"tier exited during boot (code {self.proc.returncode})")
        info = json.loads(line)
        self.pid: int = info["pid"]
        self.addresses: list[list[str]] = info["addresses"]
        self.worker_pids: list[int] = info["workers"]

    def stop(self, timeout: float = 60.0) -> None:
        """Close the tier and wait for its process to end (idempotent)."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.stdout.read()
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for row in self.addresses:
            for address in row:
                try:
                    os.rmdir(os.path.dirname(address))
                except OSError:
                    pass


class RemoteTier:
    """The part of ``ShardManager`` a ``FrontendRouter`` reads, for a tier
    living in another process.  Placement uses the same deterministic
    ring the tier's own manager builds."""

    def __init__(self, addresses: list[list[str]]) -> None:
        from repro.cluster.ring import HashRing

        self.num_shards = len(addresses)
        self.num_replicas = len(addresses[0])
        self.ring = HashRing(range(self.num_shards))
        self._addresses = addresses

    def replica_addresses(self, shard: int) -> list[str]:
        return list(self._addresses[shard])

    def shard_for(self, source) -> int:
        return self.ring.shard_for(source)


def all_pairs(network, seed: int) -> list[tuple]:
    """Every ordered pair, in the seed's shuffled order."""
    from repro.cluster.loadgen import all_pairs_workload

    return all_pairs_workload(network, seed=workloads.subseed(seed, "pairs"))


def warm(tier: Tier, network) -> None:
    """Fill every replica's forests and decoded paths for every pair."""
    from repro.server.client import RouterClient

    remote = RemoteTier(tier.addresses)
    nodes = list(network.nodes())
    for shard, row in enumerate(tier.addresses):
        pairs = [
            (s, t) for s in nodes if remote.shard_for(s) == shard for t in nodes if s != t
        ]
        for address in row:
            with RouterClient(address) as client:
                client.route_batch(pairs)


def fault_events(network, seed: int) -> list:
    from repro.faults.plan import generate_plan

    plan = generate_plan(
        network,
        seed=workloads.subseed(seed, "faults"),
        num_faults=workloads.PLAN_FAULTS,
        kinds=("link", "channel", "converter"),
    )
    return list(plan.events)


def run(
    workload: str,
    seed: int,
    seconds: float,
    run_dir: str,
    tracer=None,
    trace_dir: str | None = None,
) -> dict:
    """One run of a served workload; returns raw observations."""
    setups: list[float] = []
    tier = None
    try:
        for _ in range(1 if tracer else workloads.SETUPS):
            if tier is not None:
                tier.stop()
            begin = time.perf_counter()
            network = workloads.sparse_wan()
            tier = Tier(run_dir, trace_dir)
            warm(tier, network)
            setups.append(time.perf_counter() - begin)
        observed = _timed(workload == "served_churn", seed, seconds, network, tier, tracer)
    finally:
        if tier is not None:
            tier.stop()
    observed["setup_s"] = setups
    return observed


def _timed(churn: bool, seed: int, seconds: float, network, tier: Tier, tracer) -> dict:
    """The closed loop against a warm tier; stops the tier at the end."""
    from repro.cluster.chaos import event_to_patch_ops
    from repro.cluster.frontend import FrontendRouter
    from repro.exceptions import SemilightError

    pairs = all_pairs(network, seed)
    events = fault_events(network, seed) if churn else []
    frontend = FrontendRouter(RemoteTier(tier.addresses), max_inflight=workloads.CALLERS)
    callers = workloads.CALLERS
    # Per caller: its ops, and each distinct answer once (keyed by pair
    # and epoch; a differing repeat is kept as well).
    ops = [measure.OpLog() for _ in range(callers)]
    answers: list[dict] = [{} for _ in range(callers)]
    repeats: list[tuple] = []
    errors = [0] * callers
    patch_state = {"sent": 0, "failed": 0}
    stop = threading.Event()
    barrier = threading.Barrier(callers + 1)

    def send_patch() -> None:
        event = events[patch_state["sent"] % len(events)]
        patch_state["sent"] += 1
        try:
            frontend.patch(event_to_patch_ops(network, event))
        except SemilightError:
            patch_state["failed"] += 1

    def caller(index: int) -> None:
        done, seen = ops[index], answers[index]
        cursor = index * len(pairs) // callers
        seq = 0
        barrier.wait()
        while not stop.is_set():
            source, target = pairs[cursor % len(pairs)]
            cursor += 1
            if tracer is not None:
                tracer.set_request((index << 32) | seq)
            seq += 1
            begin = time.monotonic_ns()
            try:
                path, epoch = frontend.route_with_epoch(source, target)
            except SemilightError:
                errors[index] += 1
                continue
            done.record(begin, time.monotonic_ns())
            key = (source, target, epoch)
            first = seen.setdefault(key, path)
            if first is not path and first != path:
                repeats.append((source, target, path, epoch))
            if churn and index == 0 and seq % workloads.PATCH_EVERY == 0:
                send_patch()

    pids = {
        "loadgen": [os.getpid()],
        "tier": [tier.pid],
        "workers": list(tier.worker_pids),
    }
    timeline = measure.Timeline(pids, seconds)
    with ThreadPoolExecutor(callers, thread_name_prefix="caller") as pool:
        futures = [pool.submit(caller, index) for index in range(callers)]
        if tracer is not None:
            tracer.enabled = True
        window_start = time.monotonic_ns()
        timeline.open()
        barrier.wait()
        while True:
            time.sleep(max(0.0, (timeline.due_ns() - time.monotonic_ns()) / 1e9))
            timeline.close()
            if timeline.done:
                break
            timeline.open()
        stop.set()
        for future in futures:
            future.result()
    window_end = time.monotonic_ns()
    if tracer is not None:
        tracer.enabled = False
    pss = sum(measure.pss_mib(pid) for group in pids.values() for pid in group)
    stats = frontend.stats()
    counters = frontend.metrics.snapshot()
    frontend.close()
    tier.stop()

    for log in ops[1:]:
        ops[0].extend(log)
    gossip = {"forwarded": 0, "duplicates": 0, "failed": 0}
    respawns = 0
    for row in stats:
        for replica in row:
            respawns += replica["respawns"]
            for key in gossip:
                gossip[key] += replica["gossip"][key]
    return {
        "network": network,
        "events": events,
        "ops": ops[0],
        "timeline": timeline,
        "answers": [
            (source, target, path, epoch)
            for seen in answers
            for (source, target, epoch), path in seen.items()
        ]
        + repeats,
        "errors": sum(errors),
        "patches": patch_state["sent"],
        "patch_failures": patch_state["failed"],
        "cpu_s": timeline.cpu_s(),
        "pss_mb": pss,
        "window_ns": (window_start, window_end),
        "counters": {
            "failovers": counters.get("frontend.failovers", 0),
            "shed": counters.get("frontend.shed", 0),
            "shard_queries": [
                counters.get(f"frontend.shard.{shard}.queries", 0)
                for shard in range(len(tier.addresses))
            ],
            "gossip": gossip,
            "respawns": respawns,
        },
    }
