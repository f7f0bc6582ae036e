"""The differential harness: run scenarios through the oracle matrix.

For every query of a :class:`~repro.verify.scenarios.Scenario`,
:class:`DifferentialHarness` asks each applicable oracle for the optimum and
diffs the answers:

* **reachability** — all oracles agree whether a semilightpath exists;
* **cost** — every returned cost matches within float tolerance
  (:func:`~repro.verify.certificate.costs_close`);
* **hops** — the tie-break-pinned (``exact_hops``) family agrees on the
  exact hop sequence, hence on wavelength and converter assignments too
  (both are determined by the hop sequence);
* **certificate** — every returned path independently revalidates under
  Eq. (1) (:func:`~repro.verify.certificate.check_certificate`);
* **error** — an oracle crashing (any exception other than the expected
  ``NoPathError``, which its adapter maps to ``None``) is itself a finding,
  never a harness abort.

:func:`fuzz` drives a time-budgeted loop of seeded random scenarios
through any harness's ``run`` — this one's, or
:class:`~repro.multicast.verify.MulticastHarness`'s; per-scenario seeds
derive deterministically from the base seed, so any failure reproduces
from ``(base seed, scenario index)`` alone.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.core.semilightpath import Semilightpath
from repro.verify.certificate import check_certificate, costs_close
from repro.verify.oracles import Oracle, default_oracles
from repro.verify.scenarios import Scenario

__all__ = [
    "Disagreement",
    "ScenarioReport",
    "FuzzResult",
    "DifferentialHarness",
    "fuzz",
]

NodeId = Hashable


@dataclass(frozen=True)
class Disagreement:
    """One verified difference between oracles (or against Eq. (1))."""

    kind: str  # "reachability" | "cost" | "hops" | "certificate" | "error"
    source: NodeId
    target: NodeId
    oracles: tuple[str, ...]
    detail: str

    def summary(self) -> str:
        names = ", ".join(self.oracles)
        return f"[{self.kind}] {self.source!r} -> {self.target!r} ({names}): {self.detail}"


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    scenario: Scenario
    oracle_names: tuple[str, ...]
    queries_checked: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def counters(self) -> dict[str, int]:
        """What :func:`fuzz` sums across reports."""
        return {"queries_checked": self.queries_checked}

    def format(self) -> str:
        lines = [
            f"scenario seed={self.scenario.seed!r} {self.scenario.description} "
            f"({self.scenario!r})",
            f"oracles: {', '.join(self.oracle_names)}",
            f"queries checked: {self.queries_checked}",
        ]
        if self.ok:
            lines.append("no disagreements")
        else:
            lines.append(f"{len(self.disagreements)} disagreement(s):")
            lines.extend(f"  {d.summary()}" for d in self.disagreements)
        return "\n".join(lines)


@dataclass
class FuzzResult:
    """Aggregate outcome of one :func:`fuzz` run (either scenario kind)."""

    scenarios_run: int
    counters: dict[str, int]  # every report's ``counters``, summed
    failures: list[Any]  # the failing reports
    elapsed: float
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures


class DifferentialHarness:
    """Diff every applicable oracle's answer on every query.

    Parameters
    ----------
    oracles:
        The matrix to run; defaults to :func:`~repro.verify.oracles.default_oracles`.
        Tests inject perturbed oracles here to validate the harness itself.
    """

    #: The scenario kind :meth:`run` takes (see
    #: :func:`~repro.verify.corpus.replay_corpus`).
    scenario_type = Scenario

    def __init__(self, oracles: Sequence[Oracle] | None = None) -> None:
        self.oracles = tuple(oracles if oracles is not None else default_oracles())
        if not self.oracles:
            raise ValueError("the harness needs at least one oracle")

    # -- one scenario ---------------------------------------------------------

    def run(self, scenario: Scenario) -> ScenarioReport:
        """Run *scenario* through every applicable oracle and diff answers."""
        applicable = [o for o in self.oracles if o.applies(scenario)]
        report = ScenarioReport(
            scenario=scenario, oracle_names=tuple(o.name for o in applicable)
        )
        routes: dict[str, Callable] = {}
        exact = {o.name for o in applicable if o.exact_hops}
        for oracle in applicable:
            try:
                routes[oracle.name] = oracle.prepare(scenario.network)
            except Exception as exc:  # a crashing backend is a finding
                report.disagreements.append(
                    Disagreement(
                        kind="error",
                        source=None,
                        target=None,
                        oracles=(oracle.name,),
                        detail=f"prepare raised {type(exc).__name__}: {exc}",
                    )
                )
        for source, target in scenario.queries:
            report.queries_checked += 1
            answers: dict[str, Semilightpath | None] = {}
            for name, route in routes.items():
                try:
                    answers[name] = route(source, target)
                except Exception as exc:
                    report.disagreements.append(
                        Disagreement(
                            kind="error",
                            source=source,
                            target=target,
                            oracles=(name,),
                            detail=f"route raised {type(exc).__name__}: {exc}",
                        )
                    )
            report.disagreements.extend(
                self._diff_query(scenario, source, target, answers, exact)
            )
        return report

    def _diff_query(
        self,
        scenario: Scenario,
        source: NodeId,
        target: NodeId,
        answers: dict[str, Semilightpath | None],
        exact: set[str],
    ) -> list[Disagreement]:
        found: list[Disagreement] = []

        # Eq. (1) certificates, independent of any cross-oracle agreement.
        for name, path in answers.items():
            if path is None:
                continue
            cert = check_certificate(scenario.network, path, source, target)
            if not cert.ok:
                found.append(
                    Disagreement(
                        kind="certificate",
                        source=source,
                        target=target,
                        oracles=(name,),
                        detail="; ".join(cert.violations),
                    )
                )

        reached = {n for n, p in answers.items() if p is not None}
        unreached = {n for n, p in answers.items() if p is None}
        if reached and unreached:
            found.append(
                Disagreement(
                    kind="reachability",
                    source=source,
                    target=target,
                    oracles=tuple(sorted(reached)) + tuple(sorted(unreached)),
                    detail=(
                        f"found a path: {sorted(reached)}; "
                        f"found none: {sorted(unreached)}"
                    ),
                )
            )
            return found  # cost/hop diffs would only repeat the same split

        if not reached:
            return found  # unanimous NoPath — nothing further to compare

        costs = {name: answers[name].total_cost for name in reached}
        cheapest = min(costs, key=costs.get)
        dearest = max(costs, key=costs.get)
        if not costs_close(costs[cheapest], costs[dearest]):
            found.append(
                Disagreement(
                    kind="cost",
                    source=source,
                    target=target,
                    oracles=tuple(sorted(reached)),
                    detail=", ".join(
                        f"{name}={costs[name]!r}" for name in sorted(costs)
                    ),
                )
            )

        exact_answers = {n: answers[n] for n in reached & exact}
        if len(exact_answers) > 1:
            names = sorted(exact_answers)
            reference_name = names[0]
            reference = exact_answers[reference_name].hops
            for name in names[1:]:
                if exact_answers[name].hops != reference:
                    found.append(
                        Disagreement(
                            kind="hops",
                            source=source,
                            target=target,
                            oracles=(reference_name, name),
                            detail=(
                                f"{reference_name}: {reference}; "
                                f"{name}: {exact_answers[name].hops}"
                            ),
                        )
                    )
        return found


def fuzz(
    run: Callable[[Any], Any],
    generate: Callable[[int], Any],
    seconds: float,
    seed: int = 0,
    max_failures: int = 10,
    on_scenario: Callable[[Any], None] | None = None,
) -> FuzzResult:
    """Generate-and-run scenarios until the time budget runs out.

    *generate* draws one scenario from a per-scenario seed (e.g.
    :func:`~repro.verify.scenarios.random_scenario`); *run* checks it and
    returns a report with ``ok`` and ``counters`` (e.g.
    :meth:`DifferentialHarness.run`).  At least one scenario always runs.
    Stops early after *max_failures* failing scenarios (each is expensive
    to shrink; a systematic bug does not need hundreds of witnesses).
    ``elapsed`` is measured from the loop's start, so a scenario that
    overruns the budget is counted in full.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    rng = random.Random(seed)
    started = time.monotonic()
    deadline = started + seconds
    scenarios_run = 0
    counters: Counter[str] = Counter()
    failures: list[Any] = []
    while scenarios_run == 0 or (
        time.monotonic() < deadline and len(failures) < max_failures
    ):
        report = run(generate(rng.randrange(2**63)))
        scenarios_run += 1
        counters.update(report.counters)
        if not report.ok:
            failures.append(report)
        if on_scenario is not None:
            on_scenario(report)
    return FuzzResult(
        scenarios_run=scenarios_run,
        counters=dict(counters),
        failures=failures,
        elapsed=time.monotonic() - started,
        seed=seed,
    )
