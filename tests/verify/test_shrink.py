"""The delta-debugging shrinker, including the end-to-end acceptance fixture:

an intentionally injected cost perturbation must be caught by the harness,
shrunk to a counterexample of at most 6 nodes, and written to the corpus.
"""

import json

import pytest

from repro.multicast.splitters import MC
from repro.multicast.verify import (
    MulticastHarness,
    MulticastScenario,
    random_multicast_scenario,
)
from repro.verify.corpus import load_case, save_case
from repro.verify.harness import DifferentialHarness, fuzz
from repro.verify.oracles import default_oracles
from repro.verify.scenarios import random_scenario
from repro.verify.shrink import shrink_scenario
from tests.verify.test_harness import FAST_ORACLES, perturbing_oracle


def failing_harness():
    """A harness whose matrix contains one oracle with a +0.125 cost bug."""
    return DifferentialHarness(list(FAST_ORACLES) + [perturbing_oracle()])


class TestShrink:
    def test_refuses_to_shrink_a_passing_scenario(self):
        harness = DifferentialHarness(FAST_ORACLES)
        with pytest.raises(ValueError, match="does not fail"):
            shrink_scenario(random_scenario(0), lambda s: not harness.run(s).ok)

    def test_result_still_fails_and_is_smaller(self):
        harness = failing_harness()
        fails = lambda s: not harness.run(s).ok  # noqa: E731
        scenario = random_scenario(7)
        shrunk = shrink_scenario(scenario, fails)
        assert fails(shrunk)
        assert shrunk.network.num_nodes <= scenario.network.num_nodes
        assert len(shrunk.queries) == 1
        assert shrunk.description.endswith("(shrunk)")

    def test_one_minimality_of_links(self):
        # Dropping any single remaining link must make the failure vanish
        # (here: disconnect the only query, so the perturbed oracle and the
        # matrix agree on unreachability).
        harness = failing_harness()
        fails = lambda s: not harness.run(s).ok  # noqa: E731
        shrunk = shrink_scenario(random_scenario(7), fails)
        assert shrunk.network.num_links >= 1
        from repro.verify.shrink import _candidate, _rebuild

        for link in shrunk.network.links():
            def drop(tail, head, costs, _link=link):
                return None if (tail, head) == (_link.tail, _link.head) else costs

            candidate = _candidate(shrunk, _rebuild(shrunk.network, link_costs=drop))
            assert not (candidate.queries and fails(candidate)), (
                f"link {link.tail}->{link.head} is redundant in the shrunk scenario"
            )

    def test_multi_query_interaction_drops_queries_one_at_a_time(self):
        # When no single query reproduces the failure, the shrinker must
        # fall back to dropping queries individually.  A synthetic
        # predicate that needs two specific queries present stands in for
        # a stateful cross-query bug.
        scenario = random_scenario(7)
        assert len(scenario.queries) >= 3
        needed = set(scenario.queries[:2])

        def fails(candidate):
            return needed <= set(candidate.queries)

        shrunk = shrink_scenario(scenario, fails)
        assert set(shrunk.queries) == needed

    def test_acceptance_perturbation_caught_shrunk_and_persisted(self, tmp_path):
        harness = failing_harness()

        # Caught: the fuzzer itself trips over the injected bug.
        result = fuzz(
            harness.run, random_scenario, seconds=10, seed=1998, max_failures=1
        )
        assert not result.ok
        failing_report = result.failures[0]

        # Shrunk: to a minimal counterexample of at most 6 nodes.
        fails = lambda s: not harness.run(s).ok  # noqa: E731
        shrunk = shrink_scenario(failing_report.scenario, fails)
        assert shrunk.network.num_nodes <= 6
        final_report = harness.run(shrunk)
        assert not final_report.ok

        # Written to the corpus, and replayable from it.
        path = save_case(
            tmp_path, shrunk, [d.detail for d in final_report.disagreements]
        )
        assert path.is_file()
        case = load_case(path)
        assert case.disagreements
        assert not harness.run(case.scenario).ok
        # The fixed oracle matrix passes the same corpus case.
        assert DifferentialHarness(FAST_ORACLES).run(case.scenario).ok

    def test_wavelength_universe_is_cut_to_used_entries(self, tmp_path):
        harness = failing_harness()
        fails = lambda s: not harness.run(s).ok  # noqa: E731
        shrunk = shrink_scenario(random_scenario(11), fails)
        used = {w for link in shrunk.network.links() for w in link.costs}
        assert shrunk.network.num_wavelengths == max(used) + 1
        # The persisted document is small enough to eyeball in review.
        path = save_case(tmp_path, shrunk)
        assert len(json.loads(path.read_text())["network"]["links"]) <= 6


class TestShrinkMulticast:
    """The same shrinker, driven through the multicast scenario kind."""

    def test_multicast_failure_shrinks_through_every_pass(self):
        harness = MulticastHarness(cost_perturbation=0.125)
        fails = lambda s: not harness.run(s).ok  # noqa: E731
        scenario = random_multicast_scenario(0)
        assert fails(scenario)
        shrunk = shrink_scenario(scenario, fails)
        assert isinstance(shrunk, MulticastScenario)
        assert fails(shrunk)
        assert shrunk.description.endswith("(shrunk)")
        # Item pass, then the member pass: one request, one member.
        assert len(shrunk.requests) == 1
        assert len(shrunk.requests[0].members) == 1
        # Splitter pass: a mispricing needs no constrained node.
        assert all(
            shrunk.splitters.capability(node) == MC
            for node in shrunk.network.nodes()
        )
        # Node/link passes: just the source, the member and one link.
        assert shrunk.network.num_nodes == 2
        assert shrunk.network.num_links == 1
        # Universe pass: k cut to the largest wavelength still used.
        used = {w for link in shrunk.network.links() for w in link.costs}
        assert shrunk.network.num_wavelengths == max(used) + 1

    def test_member_pass_keeps_the_members_a_failure_needs(self):
        scenario = random_multicast_scenario(3)
        request = max(scenario.requests, key=lambda r: len(r.members))
        assert len(request.members) >= 2
        needed = set(request.members[:2])

        def fails(candidate):
            return any(
                r.source == request.source and needed <= set(r.members)
                for r in candidate.requests
            )

        shrunk = shrink_scenario(scenario, fails)
        assert [set(r.members) for r in shrunk.requests] == [needed]
