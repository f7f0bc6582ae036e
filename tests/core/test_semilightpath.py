"""Unit tests for the Semilightpath object and Eq. (1) evaluation."""

import dataclasses
import math
import pickle

import pytest

from repro.core.conversion import NoConversion
from repro.core.semilightpath import Conversion, Hop, Semilightpath
from repro.exceptions import (
    ConversionError,
    InvalidPathError,
    WavelengthUnavailableError,
)


def make_path(*triples):
    return Semilightpath(hops=tuple(Hop(t, h, w) for t, h, w in triples))


class TestStructure:
    def test_requires_at_least_one_hop(self):
        with pytest.raises(InvalidPathError):
            Semilightpath(hops=())

    def test_rejects_broken_chain(self):
        with pytest.raises(InvalidPathError, match="hop 0 ends"):
            make_path(("a", "b", 0), ("c", "d", 0))

    def test_endpoints(self):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        assert path.source == "a"
        assert path.target == "c"
        assert path.num_hops == 2

    def test_nodes_sequence(self):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        assert path.nodes() == ["a", "b", "c"]

    def test_wavelengths(self):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        assert path.wavelengths() == [0, 1]

    def test_iteration_and_len(self):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        assert len(path) == 2
        assert [h.head for h in path] == ["b", "c"]


    def test_slotted_yet_picklable_hashable_and_equal(self):
        # Decoded paths fill every route cache, so neither class carries
        # a per-instance __dict__; value semantics must survive that.
        path = Semilightpath(
            hops=(Hop("a", "b", 0), Hop("b", "c", 1)), total_cost=2.5
        )
        for value in (path.hops[0], path):
            assert not hasattr(value, "__dict__")
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value
            assert hash(copy) == hash(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                copy.__setattr__(dataclasses.fields(copy)[0].name, None)


class TestConversions:
    def test_no_switch_no_conversions(self):
        path = make_path(("a", "b", 0), ("b", "c", 0))
        assert path.conversions() == []
        assert path.num_conversions == 0
        assert path.is_lightpath

    def test_switch_recorded(self):
        path = make_path(("a", "b", 0), ("b", "c", 2))
        assert path.conversions() == [
            Conversion(node="b", from_wavelength=0, to_wavelength=2)
        ]
        assert path.num_conversions == 1
        assert not path.is_lightpath

    def test_multiple_switches(self):
        path = make_path(("a", "b", 0), ("b", "c", 1), ("c", "d", 0))
        assert path.num_conversions == 2


class TestNodeSimplicity:
    def test_simple_path(self):
        assert make_path(("a", "b", 0), ("b", "c", 0)).is_node_simple

    def test_revisiting_walk(self):
        walk = make_path(
            ("a", "b", 0), ("b", "c", 0), ("c", "b", 1), ("b", "d", 1)
        )
        assert not walk.is_node_simple

    def test_cycle_back_to_source(self):
        walk = make_path(("a", "b", 0), ("b", "a", 1))
        assert not walk.is_node_simple


class TestCostEvaluation:
    def test_eq1_decomposition(self, tiny_net):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        # w(a->b, λ1) + c_b(λ1, λ2) + w(b->c, λ2) = 1 + 0.5 + 1
        assert path.evaluate_cost(tiny_net) == pytest.approx(2.5)

    def test_lightpath_has_no_conversion_cost(self, tiny_net):
        path = make_path(("a", "c", 0))
        assert path.evaluate_cost(tiny_net) == pytest.approx(4.0)

    def test_unavailable_wavelength_raises(self, tiny_net):
        path = make_path(("a", "b", 1))  # a->b only offers λ1 (index 0)
        with pytest.raises(WavelengthUnavailableError):
            path.evaluate_cost(tiny_net)

    def test_unsupported_conversion_raises(self, tiny_net):
        tiny_net.set_conversion("b", NoConversion())
        path = make_path(("a", "b", 0), ("b", "c", 1))
        with pytest.raises(ConversionError):
            path.evaluate_cost(tiny_net)

    def test_validate_accepts_correct_claim(self, tiny_net):
        path = Semilightpath(
            hops=(Hop("a", "b", 0), Hop("b", "c", 1)), total_cost=2.5
        )
        path.validate(tiny_net)  # must not raise

    def test_validate_rejects_wrong_claim(self, tiny_net):
        path = Semilightpath(
            hops=(Hop("a", "b", 0), Hop("b", "c", 1)), total_cost=99.0
        )
        with pytest.raises(InvalidPathError, match="claimed cost"):
            path.validate(tiny_net)

    def test_validate_ignores_nan_claim(self, tiny_net):
        path = make_path(("a", "b", 0), ("b", "c", 1))
        assert math.isnan(path.total_cost)
        path.validate(tiny_net)  # must not raise


class TestFromSequence:
    def test_builds_and_prices(self, tiny_net):
        path = Semilightpath.from_sequence(["a", "b", "c"], [0, 1], tiny_net)
        assert path.total_cost == pytest.approx(2.5)

    def test_without_network_cost_is_nan(self):
        path = Semilightpath.from_sequence(["a", "b"], [0])
        assert math.isnan(path.total_cost)

    def test_wavelength_count_mismatch(self):
        with pytest.raises(InvalidPathError):
            Semilightpath.from_sequence(["a", "b", "c"], [0])

    def test_too_few_nodes(self):
        with pytest.raises(InvalidPathError):
            Semilightpath.from_sequence(["a"], [])
