"""Tests for the multicast differential harness (repro.multicast.verify),
driven through the shared repro.verify fuzz loop, corpus and shrinker."""

from __future__ import annotations

import pytest

from repro.multicast.verify import (
    MulticastHarness,
    MulticastScenario,
    multicast_scenario_from_dict,
    multicast_scenario_to_dict,
    random_multicast_scenario,
)
from repro.verify import fuzz, iter_corpus, load_case, save_case, shrink_scenario


class TestHarness:
    @pytest.mark.parametrize("seed", [0, 7, 1998, 424242])
    def test_seeded_scenarios_are_clean(self, seed):
        scenario = random_multicast_scenario(seed)
        report = MulticastHarness().run(scenario)
        assert report.ok, report.format()
        assert report.requests_checked == len(scenario.requests)
        assert report.routed + report.blocked <= report.requests_checked

    def test_scenario_generation_is_deterministic(self):
        a = random_multicast_scenario(31)
        b = random_multicast_scenario(31)
        assert a.requests == b.requests
        assert a.splitters == b.splitters
        assert a.description == b.description

    def test_perturbation_is_caught_whenever_a_hierarchy_routes(self):
        # The end-to-end self-test: a +0.125 mispricing must trip the
        # certificate on every request that actually produced a hierarchy.
        harness = MulticastHarness(cost_perturbation=0.125)
        seen_routed = 0
        for seed in range(12):
            report = harness.run(random_multicast_scenario(seed))
            if not report.routed:
                continue  # nothing routed -> nothing to misprice
            seen_routed += 1
            assert not report.ok
            assert all(d.kind == "certificate" for d in report.disagreements)
        assert seen_routed > 0

    def test_short_fuzz_runs_clean(self):
        result = fuzz(
            MulticastHarness().run, random_multicast_scenario,
            seconds=1.0, seed=1998,
        )
        assert result.ok
        assert result.scenarios_run >= 1
        assert result.counters["requests_checked"] >= result.scenarios_run >= 1
        assert set(result.counters) == {
            "requests_checked", "oracle_checked", "blocked"
        }

    def test_fuzz_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            fuzz(MulticastHarness().run, random_multicast_scenario, seconds=0.0)


class TestSerialization:
    def test_dict_round_trip(self):
        scenario = random_multicast_scenario(5)
        clone = multicast_scenario_from_dict(
            multicast_scenario_to_dict(scenario)
        )
        assert clone.requests == scenario.requests
        assert clone.splitters == scenario.splitters
        assert clone.seed == scenario.seed
        assert clone.network.num_nodes == scenario.network.num_nodes
        assert clone.network.num_links == scenario.network.num_links

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            multicast_scenario_from_dict({"format": 99, "multicast": True})
        with pytest.raises(ValueError):
            # A unicast case document lacks the multicast marker.
            multicast_scenario_from_dict({"format": 1})

    def test_save_load_iter_corpus(self, tmp_path):
        scenario = random_multicast_scenario(5)
        path = save_case(tmp_path, scenario, disagreements=("[cost] demo",))
        assert path.name.startswith("mcase-") and path.suffix == ".json"
        loaded = load_case(path)
        assert isinstance(loaded.scenario, MulticastScenario)
        assert loaded.scenario.requests == scenario.requests
        assert loaded.disagreements == ("[cost] demo",)
        corpus = iter_corpus(tmp_path)
        assert len(corpus) == 1
        assert corpus[0].scenario.requests == scenario.requests
        # Content-addressed: saving the same scenario twice is idempotent.
        assert save_case(tmp_path, scenario) == path
        assert len(iter_corpus(tmp_path)) == 1

    def test_missing_corpus_directory_is_empty(self, tmp_path):
        assert iter_corpus(tmp_path / "nope") == []


class TestShrinker:
    def test_passing_scenario_is_rejected(self):
        scenario = random_multicast_scenario(3)
        with pytest.raises(ValueError):
            shrink_scenario(
                scenario, lambda s: not MulticastHarness().run(s).ok
            )

    def test_shrunk_counterexample_is_member_minimal(self):
        harness = MulticastHarness(cost_perturbation=0.125)

        def fails(candidate: MulticastScenario) -> bool:
            return not harness.run(candidate).ok

        scenario = next(
            s for s in (random_multicast_scenario(seed) for seed in range(50))
            if fails(s)
        )
        shrunk = shrink_scenario(scenario, fails)
        assert fails(shrunk)
        assert len(shrunk.requests) == 1
        # A cost perturbation needs only one delivered member: the
        # member-set pass must have reached the singleton fixed point.
        assert len(shrunk.requests[0].members) == 1
        assert shrunk.network.num_nodes <= scenario.network.num_nodes
