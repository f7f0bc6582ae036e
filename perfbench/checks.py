"""Output checks, run after the timed phase; any mismatch fails the run.

* Served answers must equal, hop for hop and cost for cost, an
  in-process ``BatchRouter`` on the network in the fault state the
  reply's epoch names: a replica at epoch 2k has applied the first k
  patches.
* provision_dynamic's admit/block sequence, hops and costs must equal a
  replay of the same arrivals through the Theorem-1 literal router
  (``LiangShenRouter(overlay=False)``), and each replayed path must pass
  the Eq. 1 certificate on the residual network it was routed on.

The checks run outside every timed window.  The ``inject_*`` functions
plant one wrong answer; the checker's tests and ``run.py --inject`` use
them to show that a wrong answer fails.
"""

from __future__ import annotations

import workloads


def record(path):
    """A path as the checks compare it: ``None`` (no path) or
    ``(((tail, head, wavelength), ...), cost)``.

    Made of numbers only, so the garbage collector stops tracking the
    records a run keeps for its checks and they do not lengthen the
    collections the run times.
    """
    if path is None:
        return None
    return (tuple((h.tail, h.head, h.wavelength) for h in path.hops), path.total_cost)


def check_served(network, events: list, answers: list, patches: int) -> list[str]:
    """Mismatches among served ``(source, target, path, epoch)`` answers.

    *events* is the fault plan the patches replayed, in order (cycled);
    *patches* is how many were sent.
    """
    from repro.core.batch import BatchRouter
    from repro.exceptions import NoPathError
    from repro.faults.injector import FaultInjector

    problems: list[str] = []
    by_state: dict[int, set] = {}
    for source, target, path, epoch in answers:
        if epoch % 2 or epoch // 2 > patches:
            problems.append(
                f"{source}->{target}: epoch {epoch} names no applied fault state"
            )
            continue
        state = (epoch // 2) % len(events) if events else epoch // 2
        by_state.setdefault(state, set()).add((source, target, record(path)))

    injector = FaultInjector(network)
    applied = 0
    for state in sorted(by_state):
        while applied < state:
            injector.apply(events[applied])
            applied += 1
        oracle = BatchRouter(injector.network_view())
        for source, target, served in sorted(by_state[state], key=repr):
            try:
                expected = record(oracle.route(source, target))
            except NoPathError:
                expected = None
            if served != expected:
                problems.append(
                    f"{source}->{target} at fault state {state}: served "
                    f"{_show(served)}, expected {_show(expected)}"
                )
    return problems


class LiteralReplay:
    """The seed's arrivals replayed through the Theorem-1 literal router
    (``LiangShenRouter(overlay=False)``), each replayed path checked by
    the Eq. 1 certificate on the residual network it was routed on.

    A run advances it between its timed windows, so the replay adds no
    wall time after the run.
    """

    def __init__(self, seed: int) -> None:
        from repro.wdm.provisioning import SemilightpathProvisioner

        from provision import Admissions, traffic

        network = workloads.sparse_wan()
        self._stream = traffic(seed, network)
        self._residuals: list = []
        self._admissions = Admissions(
            SemilightpathProvisioner(network, router_factory=self._literal_router)
        )
        #: ``(source, target, record)`` per replayed arrival.
        self.expected: list[tuple] = []
        self.problems: list[str] = []

    def _literal_router(self, residual):
        from repro.core.routing import LiangShenRouter

        self._residuals.append(residual)
        return LiangShenRouter(residual, overlay=False)

    def advance(self, count: int) -> None:
        """Replay arrivals until the first *count* have been replayed."""
        from repro.verify.certificate import check_certificate

        while len(self.expected) < count:
            request = next(self._stream)
            self._residuals.clear()
            connection = self._admissions.arrive(request)
            if connection is None:
                self.expected.append((request.source, request.target, None))
                continue
            self.expected.append((request.source, request.target, record(connection.path)))
            report = check_certificate(
                self._residuals[-1], connection.path, request.source, request.target
            )
            if not report.ok:
                self.problems.append(
                    f"arrival {len(self.expected) - 1}: replayed path fails its "
                    f"certificate: {'; '.join(report.violations)}"
                )


def check_provisioning(replay: LiteralReplay, outcomes: list) -> list[str]:
    """Mismatches between recorded outcomes of the seed's first arrivals
    and their literal-router replay."""
    replay.advance(len(outcomes))
    problems = list(replay.problems)
    for index, (served, (source, target, expected)) in enumerate(
        zip(outcomes, replay.expected)
    ):
        if served != expected:
            problems.append(
                f"arrival {index} {source}->{target}: served {_show(served)}, "
                f"replay {_show(expected)}"
            )
    return problems


def _show(answer) -> str:
    if answer is None:
        return "blocked/unreachable"
    if answer == "error":
        return "an error"
    hops, cost = answer
    walk = " ".join(f"{tail}->{head}@{wavelength}" for tail, head, wavelength in hops)
    return f"[{walk}] cost {cost!r}"


# -- planted wrong answers ------------------------------------------------------


def _first_path(answers: list) -> int:
    for index, answer in enumerate(answers):
        if answer[2] is not None:
            return index
    raise ValueError("no served path to perturb")


def inject_cost(answers: list) -> None:
    """Add 0.125 to one served answer's cost (``--inject-cost-bug``'s size)."""
    from repro.core.semilightpath import Semilightpath

    index = _first_path(answers)
    source, target, path, epoch = answers[index]
    answers[index] = (
        source,
        target,
        Semilightpath(hops=path.hops, total_cost=path.total_cost + 0.125),
        epoch,
    )


def inject_hop(answers: list, wavelengths: int) -> None:
    """Swap one hop of one served answer for the same link on the next
    wavelength: still a well-formed walk, but not the routed one."""
    from repro.core.semilightpath import Hop, Semilightpath

    index = _first_path(answers)
    source, target, path, epoch = answers[index]
    first = path.hops[0]
    hop = Hop(first.tail, first.head, (first.wavelength + 1) % wavelengths)
    answers[index] = (
        source,
        target,
        Semilightpath(hops=(hop,) + path.hops[1:], total_cost=path.total_cost),
        epoch,
    )


def inject_flip(outcomes: list, start: int = 0) -> None:
    """Record the first admission at or after *start* as blocked."""
    for index in range(start, len(outcomes)):
        if outcomes[index] is not None:
            outcomes[index] = None
            return
    raise ValueError("no admission to flip")
