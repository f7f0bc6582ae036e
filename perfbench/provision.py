"""provision_dynamic: on-line admission on the residual network.

One thread runs ``SemilightpathProvisioner`` against a seeded Poisson /
exponential ``TrafficGenerator`` stream at 60 Erlangs.  One op is one
arrival: the departures due by its arrival time are released, then
``try_establish`` routes it on the residual network.  Set-up builds the
network and the stream and runs the warm-up arrivals that bring
occupancy to steady state.
"""

from __future__ import annotations

import heapq
import os
import time

import checks
import measure
import workloads

#: Exact per-layer counts are taken over this many leading timed
#: arrivals, which every run reaches, so they repeat from run to run.
EXACT_PREFIX = 256


class Admissions:
    """Arrivals in ``DynamicSimulation.run`` order, one at a time.

    ``DynamicSimulation.run`` consumes a whole trace in one call; the
    benchmark needs each arrival as a separately timed op, so this
    repeats its loop body: release every departure due at or before the
    arrival instant, then try to admit.
    """

    def __init__(self, provisioner) -> None:
        self.provisioner = provisioner
        self._departures: list = []

    def arrive(self, request):
        """Admit *request*; returns its ``Connection`` or ``None`` (blocked)."""
        departures = self._departures
        while departures and departures[0][0] <= request.arrival_time:
            _at, _id, connection = heapq.heappop(departures)
            self.provisioner.teardown(connection)
        connection = self.provisioner.try_establish(request.source, request.target)
        if connection is not None:
            heapq.heappush(
                departures,
                (request.departure_time, connection.connection_id, connection),
            )
        return connection


def _outcome(connection):
    """What the checks compare: ``None`` (blocked) or the path's record."""
    return None if connection is None else checks.record(connection.path)


def traffic(seed: int, network):
    """The seed's arrival stream (infinite; the same on every call)."""
    from repro.wdm.traffic import TrafficGenerator

    return TrafficGenerator(
        network.nodes(),
        arrival_rate=workloads.ERLANGS / workloads.MEAN_HOLDING,
        mean_holding=workloads.MEAN_HOLDING,
        seed=workloads.subseed(seed, "trace"),
    ).stream()


def setup(seed: int):
    """The arrival stream and a provisioner past the warm-up arrivals,
    with the warm-up arrivals' outcomes."""
    from repro.wdm.provisioning import SemilightpathProvisioner

    network = workloads.sparse_wan()
    stream = traffic(seed, network)
    admissions = Admissions(SemilightpathProvisioner(network))
    outcomes = [
        _outcome(admissions.arrive(next(stream)))
        for _ in range(workloads.WARMUP_ARRIVALS)
    ]
    return stream, admissions, outcomes


def run(seed: int, seconds: float, replay, tracer=None) -> dict:
    """One run of provision_dynamic; returns raw observations.

    Between timed windows *replay* (a ``checks.LiteralReplay``) catches
    up with the arrivals served so far.  Spreading the windows out this
    way samples the machine's speed over a longer span at no extra cost.
    """
    from repro.exceptions import SemilightError

    setups = []
    for _ in range(1 if tracer else workloads.SETUPS):
        begin = time.perf_counter()
        stream, admissions, outcomes = setup(seed)
        setups.append(time.perf_counter() - begin)

    warmup = len(outcomes)
    ops = measure.OpLog()
    errors = 0
    pid = os.getpid()
    timeline = measure.Timeline({"loadgen": [pid]}, seconds)
    window_start = time.monotonic_ns()
    index = 0
    while not timeline.done or (tracer is not None and index < EXACT_PREFIX):
        replay.advance(len(outcomes))
        # A traced run goes on past the windows until the exact-count
        # prefix is covered, however slow.
        timed = not timeline.done
        if tracer is not None:
            tracer.enabled = True
        if timed:
            timeline.open()
        due = timeline.due_ns()
        while True:
            request = next(stream)
            if tracer is not None:
                tracer.set_request(index)
            start = time.monotonic_ns()
            try:
                connection = admissions.arrive(request)
            except SemilightError:
                connection = "error"
            end = time.monotonic_ns()
            ops.record(start, end)
            if connection == "error":
                errors += 1
                outcomes.append(connection)
            else:
                outcomes.append(_outcome(connection))
            index += 1
            if (end >= due) if timed else (index >= EXACT_PREFIX):
                break
        if timed:
            timeline.close()
        if tracer is not None:
            tracer.enabled = False
    window_end = time.monotonic_ns()
    timed_outcomes = outcomes[warmup:]
    return {
        "setup_s": setups,
        "ops": ops,
        "timeline": timeline,
        "outcomes": outcomes,
        "warmup": warmup,
        "errors": errors,
        "blocked_prefix": sum(1 for o in timed_outcomes[:EXACT_PREFIX] if o is None),
        "cpu_s": timeline.cpu_s(),
        "pss_mb": measure.pss_mib(pid),
        "window_ns": (window_start, window_end),
    }
