"""Tests for seeded fault schedules (repro.faults.plan)."""

from __future__ import annotations

import pytest

from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, generate_plan


class TestFaultEvent:
    def test_time_must_be_fractional(self):
        with pytest.raises(ValueError):
            FaultEvent(1.5, "latency", amount=0.01)
        with pytest.raises(ValueError):
            FaultEvent(-0.1, "latency", amount=0.01)

    def test_ordering_is_by_time(self):
        late = FaultEvent(0.9, "link_fail", tail=1, head=2)
        early = FaultEvent(0.1, "exception", amount=1.0)
        assert sorted([late, early])[0] is early

    def test_dict_round_trip_drops_nones(self):
        event = FaultEvent(0.25, "channel_fail", tail=1, head=2, wavelength=0)
        document = event.to_dict()
        assert "node" not in document and "amount" not in document
        assert FaultEvent.from_dict(document) == event

    def test_describe_names_the_resource(self):
        assert "1" in FaultEvent(0.1, "link_fail", tail=1, head=2).describe()
        assert "λ0" in FaultEvent(
            0.1, "channel_fail", tail=1, head=2, wavelength=0
        ).describe()
        assert "at" in FaultEvent(0.1, "converter_fail", node=3).describe()


class TestFaultPlan:
    def test_events_sorted_on_construction(self):
        plan = FaultPlan(
            events=(
                FaultEvent(0.9, "exception", amount=1.0),
                FaultEvent(0.1, "latency", amount=0.01),
            )
        )
        assert [e.at for e in plan.events] == [0.1, 0.9]

    def test_num_failures_excludes_recoveries(self):
        plan = FaultPlan(
            events=(
                FaultEvent(0.1, "link_fail", tail=1, head=2),
                FaultEvent(0.8, "link_recover", tail=1, head=2),
                FaultEvent(0.3, "exception", amount=2.0),
            )
        )
        assert plan.num_failures == 2
        assert plan.kinds() == {
            "link_fail": 1,
            "link_recover": 1,
            "exception": 1,
        }

    def test_due_window_is_half_open(self):
        plan = FaultPlan(
            events=(
                FaultEvent(0.2, "exception", amount=1.0),
                FaultEvent(0.5, "exception", amount=1.0),
                FaultEvent(0.8, "exception", amount=1.0),
            )
        )
        assert [e.at for e in plan.due(0.2, 0.8)] == [0.5, 0.8]
        assert plan.due(0.0, 0.2) == [plan.events[0]]
        assert plan.due(0.8, 1.0) == []

    def test_json_round_trip(self, paper_net):
        plan = generate_plan(paper_net, seed=42, num_faults=10)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.seed == 42


class TestGeneratePlan:
    def test_deterministic_in_seed(self, paper_net):
        a = generate_plan(paper_net, seed=7, num_faults=15)
        b = generate_plan(paper_net, seed=7, num_faults=15)
        assert a.to_json() == b.to_json()
        assert a.to_json() != generate_plan(paper_net, seed=8, num_faults=15).to_json()

    def test_every_kind_represented(self, paper_net):
        plan = generate_plan(paper_net, seed=0, num_faults=len(FAULT_KINDS))
        kinds = plan.kinds()
        assert "link_fail" in kinds
        assert "channel_fail" in kinds
        assert "converter_fail" in kinds
        assert "latency" in kinds
        assert "exception" in kinds

    def test_every_failure_recovers_before_plan_end(self, paper_net):
        plan = generate_plan(paper_net, seed=3, num_faults=20)
        open_resources: set[tuple] = set()
        for event in plan.events:
            if event.kind.endswith("_recover"):
                key = (
                    event.kind.rsplit("_", 1)[0],
                    event.tail,
                    event.head,
                    event.wavelength,
                    event.node,
                )
                assert key in open_resources, f"recovery without failure: {event}"
                open_resources.discard(key)
            elif event.kind.endswith("_fail"):
                key = (
                    event.kind.rsplit("_", 1)[0],
                    event.tail,
                    event.head,
                    event.wavelength,
                    event.node,
                )
                assert key not in open_resources, f"double failure: {event}"
                open_resources.add(key)
        assert not open_resources, "plan must end on the pristine network"

    def test_resource_faults_target_distinct_resources(self, paper_net):
        plan = generate_plan(paper_net, seed=1, num_faults=20)
        fibers = [
            frozenset((e.tail, e.head))
            for e in plan.events
            if e.kind == "link_fail"
        ]
        channels = [
            (e.tail, e.head, e.wavelength)
            for e in plan.events
            if e.kind == "channel_fail"
        ]
        nodes = [e.node for e in plan.events if e.kind == "converter_fail"]
        assert len(fibers) == len(set(fibers))
        assert len(channels) == len(set(channels))
        assert len(nodes) == len(set(nodes))

    def test_rejects_bad_arguments(self, paper_net):
        with pytest.raises(ValueError):
            generate_plan(paper_net, num_faults=0)
        with pytest.raises(ValueError):
            generate_plan(paper_net, kinds=("link", "gremlin"))
