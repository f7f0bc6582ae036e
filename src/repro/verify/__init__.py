"""Differential verification: multi-oracle fuzzing for the routing stack.

The paper's structure is itself a correctness oracle: Theorem 1's layered
graph, Corollary 1's tree sweep, the CFZ wavelength-graph baseline, the
distributed embedding, and plain state-space relaxation all compute the
*same* optimum, and Eq. (1) makes every answer a checkable certificate.
This package turns that redundancy into an always-on differential harness:

* :mod:`repro.verify.scenarios` — seeded random scenarios
  (topology × wavelength availability × converter cost model × query set);
* :mod:`repro.verify.certificate` — an independent Eq. (1) cost/feasibility
  checker that trusts no router internals;
* :mod:`repro.verify.oracles` — the oracle matrix (every router backend
  wrapped behind one uniform interface);
* :mod:`repro.verify.harness` — run a scenario through every applicable
  oracle pair and diff costs, hop sequences, and assignments; plus
  :func:`fuzz`, the time-budgeted loop over seeded scenarios;
* :mod:`repro.verify.shrink` — delta-debugging reduction of a failing
  scenario to a minimal counterexample;
* :mod:`repro.verify.corpus` — the golden corpus of shrunk failures that
  CI replays.

The fuzz loop, the shrinker and the corpus are one toolkit for both
scenario kinds: the multicast light-hierarchy scenarios of
:mod:`repro.multicast.verify` plug in through their harness's ``run``,
the :class:`~repro.verify.shrink.Shrinkable` protocol (which adds the
member-set and splitter passes right after the request pass) and the
``mcase-*.json`` corpus prefix.

CLI entry points: ``repro verify`` (corpus replay + seeded sweep),
``repro fuzz --seconds N --seed S`` (time-budgeted fuzzing) and
``repro multicast --seconds N --seed S`` (multicast corpus replay +
fuzzing).
"""

from repro._lazy import lazy_exports

__all__ = [
    "CertificateReport",
    "check_certificate",
    "CorpusCase",
    "iter_corpus",
    "load_case",
    "replay_corpus",
    "save_case",
    "Disagreement",
    "DifferentialHarness",
    "FuzzResult",
    "ScenarioReport",
    "fuzz",
    "Oracle",
    "default_oracles",
    "Scenario",
    "network_is_chain_free",
    "random_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "Shrinkable",
    "shrink_scenario",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "CertificateReport": ".certificate",
        "check_certificate": ".certificate",
        "CorpusCase": ".corpus",
        "iter_corpus": ".corpus",
        "load_case": ".corpus",
        "replay_corpus": ".corpus",
        "save_case": ".corpus",
        "Disagreement": ".harness",
        "DifferentialHarness": ".harness",
        "FuzzResult": ".harness",
        "ScenarioReport": ".harness",
        "fuzz": ".harness",
        "Oracle": ".oracles",
        "default_oracles": ".oracles",
        "Scenario": ".scenarios",
        "network_is_chain_free": ".scenarios",
        "random_scenario": ".scenarios",
        "scenario_from_dict": ".scenarios",
        "scenario_to_dict": ".scenarios",
        "Shrinkable": ".shrink",
        "shrink_scenario": ".shrink",
    },
)
