"""The differential harness: oracle matrix agreement and fault detection.

The positive tests pin "the matrix agrees on generated scenarios"; the
negative tests inject faulty oracles and check each disagreement kind is
caught — the harness is itself code under test, and an oracle that can
never fire is worse than none.
"""

import time

import pytest
from hypothesis import given, settings

from repro.core.conversion import FixedCostConversion
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.core.semilightpath import Hop, Semilightpath
from repro.exceptions import NoPathError
from repro.verify.harness import DifferentialHarness, fuzz
from repro.verify.oracles import Oracle, default_oracles
from repro.verify.scenarios import Scenario, ScenarioLimits, random_scenario
from tests.strategies import networks_with_endpoints

FAST_ORACLES = default_oracles(parallel_workers=0)


def perturbing_oracle(delta=0.125, name="injected:perturbed", exact_hops=False):
    """An oracle that reports every cost *delta* too high."""

    def prepare(network):
        router = LiangShenRouter(network)

        def route(source, target):
            try:
                path = router.route(source, target).path
            except NoPathError:
                return None
            return Semilightpath(hops=path.hops, total_cost=path.total_cost + delta)

        return route

    return Oracle(name=name, prepare=prepare, exact_hops=exact_hops)


class TestMatrixAgreement:
    def test_seeded_scenarios_are_clean(self):
        harness = DifferentialHarness(FAST_ORACLES)
        for seed in range(15):
            report = harness.run(random_scenario(seed))
            assert report.ok, report.format()
            assert report.queries_checked == len(report.scenario.queries)

    def test_full_matrix_including_parallel_pool(self):
        harness = DifferentialHarness()  # includes liang:all-pairs:parallel
        report = harness.run(random_scenario(3))
        assert "liang:all-pairs:parallel" in report.oracle_names
        assert report.ok, report.format()

    @given(case=networks_with_endpoints())
    @settings(max_examples=25, deadline=None)
    def test_matrix_agrees_on_hypothesis_networks(self, case):
        net, source, target = case
        scenario = Scenario(
            network=net, queries=((source, target),), description="hypothesis"
        )
        report = DifferentialHarness(FAST_ORACLES).run(scenario)
        assert report.ok, report.format()

    def test_report_format_mentions_outcome(self):
        harness = DifferentialHarness(FAST_ORACLES)
        report = harness.run(random_scenario(0))
        assert "no disagreements" in report.format()


class TestFaultDetection:
    def scenario(self):
        return random_scenario(7)  # every query pair is reachable

    def test_cost_perturbation_caught(self):
        harness = DifferentialHarness(list(FAST_ORACLES) + [perturbing_oracle()])
        report = harness.run(self.scenario())
        kinds = {d.kind for d in report.disagreements}
        # A perturbed claim disagrees with the matrix *and* fails its own
        # Eq. (1) certificate.
        assert "cost" in kinds and "certificate" in kinds
        assert any(
            "injected:perturbed" in d.oracles for d in report.disagreements
        )

    def test_reachability_split_caught(self):
        blind = Oracle(name="injected:blind", prepare=lambda net: lambda s, t: None)
        harness = DifferentialHarness(list(FAST_ORACLES) + [blind])
        report = harness.run(self.scenario())
        splits = [d for d in report.disagreements if d.kind == "reachability"]
        assert splits and all("injected:blind" in d.detail for d in splits)

    def test_hop_divergence_caught_for_exact_oracles(self):
        # Two equal-cost two-hop routes a->b->d and a->c->d; the pinned
        # tie-break picks one, the injected exact-hops oracle the other.
        net = WDMNetwork(num_wavelengths=1, default_conversion=FixedCostConversion(0.0))
        for node in range(4):  # 0=a, 1=b, 2=c, 3=d
            net.add_node(node)
        for tail, head in [(0, 1), (1, 3), (0, 2), (2, 3)]:
            net.add_link(tail, head, {0: 1.0})
        other = Semilightpath(
            hops=(Hop(0, 2, 0), Hop(2, 3, 0)), total_cost=2.0
        )

        def prepare(network):
            return lambda s, t: other if (s, t) == (0, 3) else None

        rogue = Oracle(name="injected:other-path", prepare=prepare, exact_hops=True)
        scenario = Scenario(network=net, queries=((0, 3),))
        report = DifferentialHarness(list(FAST_ORACLES) + [rogue]).run(scenario)
        kinds = {d.kind for d in report.disagreements}
        assert "hops" in kinds
        assert "cost" not in kinds and "certificate" not in kinds

    def test_route_crash_is_a_finding_not_an_abort(self):
        def prepare(network):
            def route(s, t):
                raise RuntimeError("backend exploded")

            return route

        harness = DifferentialHarness(
            list(FAST_ORACLES) + [Oracle(name="injected:crash", prepare=prepare)]
        )
        report = harness.run(self.scenario())
        errors = [d for d in report.disagreements if d.kind == "error"]
        assert errors and "backend exploded" in errors[0].detail
        assert report.queries_checked == len(report.scenario.queries)

    def test_prepare_crash_is_a_finding(self):
        def prepare(network):
            raise RuntimeError("no overlay for you")

        harness = DifferentialHarness(
            list(FAST_ORACLES) + [Oracle(name="injected:noprep", prepare=prepare)]
        )
        report = harness.run(self.scenario())
        assert any(
            d.kind == "error" and "prepare raised" in d.detail
            for d in report.disagreements
        )

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one oracle"):
            DifferentialHarness(())


class TestApplicability:
    def test_cfz_sits_out_non_chain_free_scenarios(self):
        for seed in range(200):
            scenario = random_scenario(seed)
            if not scenario.chain_free:
                break
        else:
            pytest.fail("no non-chain-free scenario in 200 seeds")
        report = DifferentialHarness(FAST_ORACLES).run(scenario)
        assert not any(name.startswith("cfz:") for name in report.oracle_names)
        assert any(name.startswith("liang:") for name in report.oracle_names)

    def test_slow_oracles_sit_out_large_state_spaces(self):
        net = WDMNetwork(num_wavelengths=33)
        for node in range(4):
            net.add_node(node)
        net.add_link(0, 1, {0: 1.0})
        scenario = Scenario(network=net, queries=((0, 1),))
        names = [o.name for o in FAST_ORACLES if o.applies(scenario)]
        assert "brute-force" not in names
        assert "distributed:bellman-ford" not in names


def fuzz_matrix(harness, seconds, seed=0, limits=ScenarioLimits(), **kwargs):
    """Fuzz *harness* over unicast scenarios drawn within *limits*."""
    return fuzz(
        harness.run,
        lambda scenario_seed: random_scenario(scenario_seed, limits=limits),
        seconds=seconds,
        seed=seed,
        **kwargs,
    )


class TestFuzz:
    def test_budget_validation(self):
        with pytest.raises(ValueError, match="seconds"):
            fuzz_matrix(DifferentialHarness(FAST_ORACLES), seconds=0)

    def test_short_budget_runs_at_least_one_scenario(self):
        result = fuzz_matrix(
            DifferentialHarness(FAST_ORACLES), seconds=0.001, seed=5
        )
        assert result.scenarios_run >= 1
        assert result.counters["queries_checked"] >= 1
        assert result.ok and result.seed == 5

    def test_stops_early_at_max_failures(self):
        always_wrong = perturbing_oracle()
        harness = DifferentialHarness(list(FAST_ORACLES) + [always_wrong])
        limits = ScenarioLimits(max_nodes=5)
        result = fuzz_matrix(
            harness, seconds=30, seed=0, limits=limits, max_failures=2
        )
        assert len(result.failures) == 2
        assert result.elapsed < 30

    def test_on_scenario_callback_sees_every_report(self):
        seen = []
        fuzz_matrix(
            DifferentialHarness(FAST_ORACLES),
            seconds=0.001,
            seed=1,
            on_scenario=seen.append,
        )
        assert len(seen) >= 1 and all(r.ok for r in seen)

    def test_elapsed_counts_a_scenario_that_overruns_the_budget(self):
        # One oracle slower than the whole budget: elapsed must report the
        # time actually spent, not clamp it to the budget.
        def slow_prepare(network):
            time.sleep(0.3)
            return lambda source, target: None

        slow = Oracle(name="injected:slow", prepare=slow_prepare)
        result = fuzz_matrix(DifferentialHarness([slow]), seconds=0.05)
        assert result.scenarios_run == 1
        assert result.elapsed >= 0.3
