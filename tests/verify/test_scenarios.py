"""Scenario generation and serialization."""

import json

import pytest

from repro.core.conversion import (
    FixedCostConversion,
    MatrixConversion,
    NoConversion,
    RangeLimitedConversion,
)
from repro.core.network import WDMNetwork
from repro.verify.scenarios import (
    Scenario,
    ScenarioLimits,
    network_is_chain_free,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def _net(k=2, conversion=None):
    net = WDMNetwork(num_wavelengths=k, default_conversion=conversion)
    net.add_node(0)
    net.add_node(1)
    net.add_link(0, 1, {0: 1.0})
    return net


class TestScenario:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError, match="must differ"):
            Scenario(network=_net(), queries=((0, 0),))

    def test_rejects_off_network_queries(self):
        with pytest.raises(ValueError, match="off the network"):
            Scenario(network=_net(), queries=((0, 99),))

    def test_repr_mentions_sizes(self):
        scenario = Scenario(network=_net(), queries=((0, 1),), seed=3)
        assert "n=2" in repr(scenario) and "seed=3" in repr(scenario)

    def test_shrinkable_protocol(self):
        scenario = Scenario(network=_net(), queries=((0, 1),))
        assert scenario.items == ((0, 1),)
        assert scenario.with_items(()).queries == ()
        assert scenario.pinned_nodes() == {0, 1}
        assert scenario.size() == (1,)
        assert scenario.shrink_passes() == ()


class TestChainFree:
    @pytest.mark.parametrize(
        "model,expected",
        [
            (NoConversion(), True),
            (FixedCostConversion(0.5), True),
            (RangeLimitedConversion(1), False),
            (MatrixConversion({(0, 1): 1.0}), False),
        ],
    )
    def test_default_model(self, model, expected):
        assert network_is_chain_free(_net(conversion=model)) is expected

    def test_explicit_node_model_can_break_chain_freedom(self):
        net = _net(conversion=FixedCostConversion(0.5))
        net.set_conversion(1, RangeLimitedConversion(1))
        assert not network_is_chain_free(net)
        assert not Scenario(network=net, queries=((0, 1),)).chain_free


class TestRandomScenario:
    def test_deterministic_per_seed(self):
        a, b = random_scenario(123), random_scenario(123)
        assert scenario_to_dict(a) == scenario_to_dict(b)
        assert scenario_to_dict(a) != scenario_to_dict(random_scenario(124))

    def test_respects_limits(self):
        limits = ScenarioLimits(min_nodes=3, max_nodes=5, max_wavelengths=2, max_queries=3)
        for seed in range(30):
            scenario = random_scenario(seed, limits=limits)
            assert 2 <= scenario.network.num_nodes <= 5
            assert scenario.network.num_wavelengths <= 2
            assert 1 <= len(scenario.queries) <= 3

    def test_sweeps_all_axes(self):
        descriptions = " ".join(
            random_scenario(seed).description for seed in range(120)
        )
        for family in ("line", "ring", "degree-bounded", "sparse", "complete"):
            assert family in descriptions
        for kind in ("full", "none", "zero", "range", "matrix"):
            assert f"conversion={kind}" in descriptions
        for kind in ("all", "random", "bounded"):
            assert f"availability={kind}" in descriptions

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            ScenarioLimits(min_nodes=1)
        with pytest.raises(ValueError):
            ScenarioLimits(min_nodes=5, max_nodes=4)
        with pytest.raises(ValueError):
            ScenarioLimits(max_queries=0)


class TestSerialization:
    def test_round_trip(self):
        scenario = random_scenario(7)
        document = scenario_to_dict(scenario)
        json.dumps(document)  # must be pure JSON
        back = scenario_from_dict(document)
        assert scenario_to_dict(back) == document
        assert back.queries == scenario.queries
        assert back.seed == scenario.seed

    def test_unknown_format_rejected(self):
        document = scenario_to_dict(random_scenario(7))
        document["format"] = 999
        with pytest.raises(ValueError, match="unsupported scenario format"):
            scenario_from_dict(document)
