"""Versioned fault-schedule serialization and member-churn events
(repro.faults.plan format 2, repro.faults.injector membership replay)."""

from __future__ import annotations

import json

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    MEMBER_KINDS,
    SCHEDULE_FORMAT,
    FaultEvent,
    FaultPlan,
    generate_member_churn,
    generate_plan,
)
from repro.topology.reference import paper_figure1_network


class TestScheduleFormat:
    def test_to_json_stamps_the_current_format(self):
        plan = generate_plan(paper_figure1_network(), seed=4, num_faults=5)
        document = json.loads(plan.to_json())
        assert document["format"] == SCHEDULE_FORMAT == 2

    def test_format1_documents_still_decode(self):
        # Regression: schedules serialized before the format field existed
        # (PR 4) carried no "format" key — they must keep loading.
        plan = generate_plan(paper_figure1_network(), seed=4, num_faults=5)
        document = json.loads(plan.to_json())
        del document["format"]
        assert FaultPlan.from_json(json.dumps(document)) == plan

    def test_bad_format_values_are_rejected(self):
        for fmt in ("two", 0, None):
            with pytest.raises(ValueError):
                FaultPlan.from_json(json.dumps({"format": fmt, "events": []}))

    def test_unknown_kind_errors_by_default(self):
        document = {
            "format": SCHEDULE_FORMAT,
            "events": [{"at": 0.5, "kind": "solar_flare"}],
        }
        with pytest.raises(ValueError, match="solar_flare"):
            FaultPlan.from_json(json.dumps(document))

    def test_unknown_kind_can_be_dropped(self):
        document = {
            "format": SCHEDULE_FORMAT,
            "events": [
                {"at": 0.2, "kind": "latency", "amount": 0.01},
                {"at": 0.5, "kind": "solar_flare"},
            ],
        }
        plan = FaultPlan.from_json(json.dumps(document), on_unknown="drop")
        assert [e.kind for e in plan.events] == ["latency"]

    def test_on_unknown_is_validated(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("{}", on_unknown="ignore")

    def test_member_churn_round_trips(self):
        churn = generate_member_churn(
            paper_figure1_network(), seed=8, num_groups=2, num_events=6
        )
        assert churn.events
        assert all(e.kind in MEMBER_KINDS for e in churn.events)
        assert FaultPlan.from_json(churn.to_json()) == churn

    def test_generate_plan_schedule_unchanged_by_member_kinds(self):
        # generate_plan draws kinds by index: adding member churn as a
        # *separate* generator must not reshuffle seeded fault plans.
        plan = generate_plan(paper_figure1_network(), seed=4, num_faults=5)
        assert all(e.kind not in MEMBER_KINDS for e in plan.events)


class TestInjectorMembership:
    def test_member_events_are_recorded_not_applied(self):
        net = paper_figure1_network()
        injector = FaultInjector(net)
        event = FaultEvent(0.5, "member_join", node=3, amount=1.0)
        injector.apply(event)
        assert injector.membership_events == [event]
        assert injector.pristine  # the network itself is untouched
        view = injector.network_view()
        assert view.num_links == net.num_links

    def test_membership_hook_is_invoked(self):
        injector = FaultInjector(paper_figure1_network())
        seen: list[FaultEvent] = []
        injector.membership_hook = seen.append
        join = FaultEvent(0.2, "member_join", node=2, amount=0.0)
        leave = FaultEvent(0.6, "member_leave", node=2, amount=0.0)
        injector.apply(join)
        injector.apply(leave)
        assert seen == [join, leave]
        assert injector.membership_events == [join, leave]

    def test_fault_events_do_not_reach_the_hook(self):
        injector = FaultInjector(paper_figure1_network())
        seen: list[FaultEvent] = []
        injector.membership_hook = seen.append
        injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
        assert seen == []
