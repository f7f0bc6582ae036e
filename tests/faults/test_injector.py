"""Tests for live fault injection (repro.faults.injector)."""

from __future__ import annotations

import pytest

from repro.core.conversion import NoConversion
from repro.exceptions import InjectedFaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent
from repro.service.service import RoutingService
from repro.wdm.events import EventLog


class TestDegradedView:
    def test_link_fail_removes_both_directions(self, paper_net):
        injector = FaultInjector(paper_net)
        assert injector.pristine
        injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
        view = injector.network_view()
        assert not view.has_link(1, 2)
        assert not view.has_link(2, 1)
        assert not injector.pristine
        injector.apply(FaultEvent(0.9, "link_recover", tail=1, head=2))
        assert injector.network_view().has_link(1, 2)
        assert injector.pristine

    def test_channel_fail_is_directed_and_single_wavelength(self, paper_net):
        wavelength = next(iter(paper_net.link(1, 2).costs))
        injector = FaultInjector(paper_net)
        injector.apply(
            FaultEvent(0.1, "channel_fail", tail=1, head=2, wavelength=wavelength)
        )
        view = injector.network_view()
        assert wavelength not in view.link(1, 2).costs
        if paper_net.has_link(2, 1):
            assert view.link(2, 1).costs == paper_net.link(2, 1).costs

    def test_dark_link_preserves_topology(self, paper_net):
        injector = FaultInjector(paper_net)
        for wavelength in paper_net.link(1, 2).costs:
            injector.apply(
                FaultEvent(
                    0.1, "channel_fail", tail=1, head=2, wavelength=wavelength
                )
            )
        view = injector.network_view()
        assert view.has_link(1, 2)
        assert not view.link(1, 2).costs

    def test_converter_fail_forces_continuity(self, paper_net):
        injector = FaultInjector(paper_net)
        injector.apply(FaultEvent(0.1, "converter_fail", node=4))
        assert isinstance(injector.network_view().conversion(4), NoConversion)
        injector.apply(FaultEvent(0.9, "converter_recover", node=4))
        assert not isinstance(injector.network_view().conversion(4), NoConversion)

    def test_base_network_is_never_mutated(self, paper_net):
        costs_before = dict(paper_net.link(1, 2).costs)
        injector = FaultInjector(paper_net)
        injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
        injector.network_view()
        assert paper_net.has_link(1, 2)
        assert paper_net.link(1, 2).costs == costs_before

    def test_unknown_kind_rejected(self, paper_net):
        with pytest.raises(ValueError):
            FaultInjector(paper_net).apply(FaultEvent(0.1, "gremlin"))


class TestEngineFaults:
    def test_latency_fault_sleeps_once(self, paper_net):
        naps: list[float] = []
        injector = FaultInjector(paper_net, sleep=naps.append)
        injector.apply(FaultEvent(0.1, "latency", amount=0.25))
        injector.worker_hook()
        injector.worker_hook()  # queue drained: second call is a no-op
        assert naps == [0.25]

    def test_exception_fault_raises_per_pending_unit(self, paper_net):
        injector = FaultInjector(paper_net)
        injector.apply(FaultEvent(0.1, "exception", amount=2.0))
        assert injector.active_faults()["engine_pending"] == 2
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                injector.worker_hook()
        injector.worker_hook()  # drained
        assert injector.active_faults()["engine_pending"] == 0


class TestServiceWiring:
    def test_failures_bump_epochs_and_reroute(self, paper_net):
        injector = FaultInjector(paper_net)
        service = RoutingService(injector.network_view)
        injector.attach(service)
        baseline = service.route(1, 7)
        hop = baseline.hops[0]
        before = service.epoch
        injector.apply(
            FaultEvent(
                0.1,
                "channel_fail",
                tail=hop.tail,
                head=hop.head,
                wavelength=hop.wavelength,
            )
        )
        assert service.epoch == before + 1  # fine-grained degradation
        rerouted = service.route(1, 7)
        assert (hop.tail, hop.head, hop.wavelength) not in {
            (h.tail, h.head, h.wavelength) for h in rerouted.hops
        }
        assert rerouted.total_cost >= baseline.total_cost

    def test_link_fail_degrades_both_directions(self, paper_net):
        injector = FaultInjector(paper_net)
        service = RoutingService(injector.network_view)
        injector.attach(service)
        before = service.epoch
        # The fiber {1, 2} fails both directions, but only the
        # directed links that exist in the base network are notified
        # (the cache patches per resource); figure 1's 1->2
        # has no reverse link, so the fail is a single notification.
        injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
        assert service.epoch == before + 1
        injector.apply(FaultEvent(0.9, "link_recover", tail=1, head=2))
        assert service.epoch == before + 2

    def test_engine_faults_do_not_bump_epochs(self, paper_net):
        injector = FaultInjector(paper_net)
        service = RoutingService(injector.network_view)
        injector.attach(service)
        before = service.epoch
        injector.apply(FaultEvent(0.1, "latency", amount=0.0))
        injector.apply(FaultEvent(0.2, "exception", amount=1.0))
        assert service.epoch == before

    def test_incremental_service_round_trips_faults(self, paper_net):
        """A fail/recover cycle is served entirely by patches (after the
        initial build) and ends on the exact pristine routes."""
        injector = FaultInjector(paper_net)
        service = RoutingService(injector.network_view)
        injector.attach(service)
        baseline = service.route(1, 7)
        hop = baseline.hops[0]
        injector.apply(
            FaultEvent(
                0.1,
                "channel_fail",
                tail=hop.tail,
                head=hop.head,
                wavelength=hop.wavelength,
            )
        )
        degraded = service.route(1, 7)
        assert degraded.hops != baseline.hops
        injector.apply(
            FaultEvent(
                0.9,
                "channel_recover",
                tail=hop.tail,
                head=hop.head,
                wavelength=hop.wavelength,
            )
        )
        restored = service.route(1, 7)
        assert restored.hops == baseline.hops
        assert restored.total_cost == baseline.total_cost
        counters = service.cache.counters()
        assert counters["rebuilds"] == 1
        assert counters["patches"] == 2

    def test_converter_faults_notify_incremental_service(self, paper_net):
        injector = FaultInjector(paper_net)
        service = RoutingService(injector.network_view)
        injector.attach(service)
        before = service.epoch
        injector.apply(FaultEvent(0.1, "converter_fail", node=2))
        assert service.epoch == before + 1
        injector.apply(FaultEvent(0.9, "converter_recover", node=2))
        assert service.epoch == before + 2

    def test_observer_records_the_fault_history(self, paper_net):
        log = EventLog()
        injector = FaultInjector(paper_net, observer=log)
        injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
        injector.apply(FaultEvent(0.9, "link_recover", tail=1, head=2))
        kinds = [event["kind"] for event in log.events]
        assert kinds == ["link_fail", "link_recover"]
        assert injector.applied == 2
