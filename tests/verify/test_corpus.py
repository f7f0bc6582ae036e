"""Corpus persistence and the golden-corpus regression replay."""

from pathlib import Path

from repro.multicast.verify import (
    MulticastHarness,
    MulticastScenario,
    multicast_scenario_to_dict,
    random_multicast_scenario,
)
from repro.verify.corpus import (
    case_filename,
    iter_corpus,
    load_case,
    replay_corpus,
    save_case,
)
from repro.verify.harness import DifferentialHarness
from repro.verify.scenarios import Scenario, random_scenario, scenario_to_dict
from tests.verify.test_harness import FAST_ORACLES

GOLDEN_CORPUS = Path(__file__).parent / "corpus"


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        scenario = random_scenario(42)
        path = save_case(tmp_path, scenario, ["cost: min=1.0 max=1.5"])
        case = load_case(path)
        assert scenario_to_dict(case.scenario) == scenario_to_dict(scenario)
        assert case.disagreements == ("cost: min=1.0 max=1.5",)
        assert case.path == path and case.name == path.name

    def test_content_addressing_is_idempotent(self, tmp_path):
        scenario = random_scenario(42)
        first = save_case(tmp_path, scenario)
        second = save_case(tmp_path, scenario, ["later capture"])
        assert first == second
        assert len(list(tmp_path.iterdir())) == 1
        assert first.name == case_filename(scenario)

    def test_distinct_scenarios_get_distinct_files(self, tmp_path):
        save_case(tmp_path, random_scenario(1))
        save_case(tmp_path, random_scenario(2))
        assert len(iter_corpus(tmp_path)) == 2

    def test_missing_directory_is_an_empty_corpus(self, tmp_path):
        assert iter_corpus(tmp_path / "nope") == []
        assert replay_corpus(
            tmp_path / "nope", DifferentialHarness(FAST_ORACLES)
        ) == []

    def test_save_creates_directory(self, tmp_path):
        path = save_case(tmp_path / "deep" / "corpus", random_scenario(3))
        assert path.is_file()


class TestBothKinds:
    """One corpus format for unicast and multicast scenarios."""

    def test_kinds_share_a_directory_and_reload_as_their_own_type(
        self, tmp_path
    ):
        unicast = random_scenario(42)
        multicast = random_multicast_scenario(5)
        unicast_path = save_case(tmp_path, unicast, ["[cost] u"])
        multicast_path = save_case(tmp_path, multicast, ["[cost] m"])
        assert unicast_path.name.startswith("case-")
        assert multicast_path.name.startswith("mcase-")
        assert multicast_path.name == case_filename(multicast)

        cases = {case.path: case for case in iter_corpus(tmp_path)}
        assert set(cases) == {unicast_path, multicast_path}
        back = cases[unicast_path]
        assert isinstance(back.scenario, Scenario)
        assert scenario_to_dict(back.scenario) == scenario_to_dict(unicast)
        assert back.disagreements == ("[cost] u",)
        back = cases[multicast_path]
        assert isinstance(back.scenario, MulticastScenario)
        assert multicast_scenario_to_dict(
            back.scenario
        ) == multicast_scenario_to_dict(multicast)
        assert back.disagreements == ("[cost] m",)

    def test_replay_runs_only_the_harness_kind(self, tmp_path):
        save_case(tmp_path, random_scenario(1))
        save_case(tmp_path, random_multicast_scenario(7))
        unicast = replay_corpus(tmp_path, DifferentialHarness(FAST_ORACLES))
        multicast = replay_corpus(tmp_path, MulticastHarness())
        assert [case.name[:5] for case, _ in unicast] == ["case-"]
        assert [case.name[:6] for case, _ in multicast] == ["mcase-"]
        assert all(report.ok for _, report in unicast + multicast)


class TestGoldenCorpus:
    def test_corpus_is_not_empty(self):
        assert len(iter_corpus(GOLDEN_CORPUS)) >= 5

    def test_filenames_match_content(self):
        for case in iter_corpus(GOLDEN_CORPUS):
            assert case.name == case_filename(case.scenario), case.name

    def test_replay_is_clean_on_current_code(self):
        results = replay_corpus(GOLDEN_CORPUS, DifferentialHarness(FAST_ORACLES))
        assert results
        for case, report in results:
            assert report.ok, f"{case.name}: {report.format()}"
