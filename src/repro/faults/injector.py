"""Deterministic fault injection against a live serving stack.

:class:`FaultInjector` owns the *fault state* for one base network: which
fibers are cut, which ``(link, λ)`` channels are dark, which converter
banks are down, and which engine-level faults (latency, exceptions) are
pending.  It exposes:

* :meth:`~FaultInjector.network_view` — the degraded network as it exists
  right now, built fresh from the pristine base.  Hand this (the bound
  method) to :class:`~repro.service.cache.EpochRouterCache` /
  :class:`~repro.service.service.RoutingService` as the network factory
  and every cache rebuild picks up the current fault set.
* :meth:`~FaultInjector.apply` — apply one
  :class:`~repro.faults.plan.FaultEvent`, mutating the fault state,
  notifying the attached service which resource failed or recovered
  (the epoch cache patches exactly that resource in place), and logging
  to an optional observer (:class:`~repro.wdm.events.EventLog` is one).
* :meth:`~FaultInjector.worker_hook` — the backend-side injection point:
  installed as ``RoutingService.fault_hook``, it consumes pending
  latency / exception faults before a backend attempt, right where a
  flaky backend would fail.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.conversion import NoConversion
from repro.core.network import WDMNetwork
from repro.exceptions import InjectedFaultError
from repro.faults.plan import FaultEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import RoutingService

__all__ = ["FaultInjector"]

NodeId = Hashable


class FaultInjector:
    """Seeded live-fault state over one base network.

    Parameters
    ----------
    network:
        The pristine base network.  Never mutated; degraded views are
        rebuilt from it on demand.
    observer:
        Optional ``(kind, time, **payload)`` callable — an
        :class:`~repro.wdm.events.EventLog` records the fault history for
        post-hoc audit.
    sleep:
        Injectable sleep for latency faults (tests pass a stub).

    Example
    -------
    >>> from repro.topology.reference import paper_figure1_network
    >>> from repro.faults.plan import FaultEvent
    >>> injector = FaultInjector(paper_figure1_network())
    >>> injector.apply(FaultEvent(0.1, "link_fail", tail=1, head=2))
    >>> injector.network_view().has_link(1, 2)
    False
    >>> injector.apply(FaultEvent(0.9, "link_recover", tail=1, head=2))
    >>> injector.network_view().has_link(1, 2)
    True
    """

    def __init__(
        self,
        network: WDMNetwork,
        observer: Callable[..., None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base = network
        self.observer = observer
        self._sleep = sleep
        self._lock = threading.Lock()
        self._failed_fibers: set[frozenset] = set()
        self._failed_channels: set[tuple[NodeId, NodeId, int]] = set()
        self._failed_converters: set[NodeId] = set()
        #: Engine-level faults pending consumption by :meth:`worker_hook`.
        self._engine_faults: deque[tuple[str, float]] = deque()
        self._service: "RoutingService | None" = None
        #: Replayed multicast membership events, in application order.
        self.membership_events: list[FaultEvent] = []
        #: Optional callable invoked (outside the lock) with each
        #: membership event — the multicast churn soak maintains its
        #: group model here.
        self.membership_hook: Callable[[FaultEvent], None] | None = None
        self.applied = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, service: "RoutingService") -> None:
        """Route invalidation notifications into *service* and install
        :meth:`worker_hook` as its backend fault hook."""
        self._service = service
        service.fault_hook = self.worker_hook

    # -- state queries --------------------------------------------------------

    @property
    def pristine(self) -> bool:
        """True when no network-resource fault is active."""
        with self._lock:
            return not (
                self._failed_fibers
                or self._failed_channels
                or self._failed_converters
            )

    def active_faults(self) -> dict[str, int]:
        with self._lock:
            return {
                "fibers": len(self._failed_fibers),
                "channels": len(self._failed_channels),
                "converters": len(self._failed_converters),
                "engine_pending": len(self._engine_faults),
            }

    # -- degraded view --------------------------------------------------------

    def network_view(self) -> WDMNetwork:
        """The base network minus every currently failed resource.

        Failed fibers lose both directed links; failed channels lose one
        wavelength entry (a link losing all of them stays as a dark
        link); failed converter banks fall back to wavelength continuity.
        Safe to call from any thread — the whole view is built under the
        injector lock.
        """
        with self._lock:
            view = WDMNetwork(
                self.base.num_wavelengths, self.base.default_conversion
            )
            for node in self.base.nodes():
                if node in self._failed_converters:
                    view.add_node(node, NoConversion())
                else:
                    view.add_node(node, self.base.explicit_conversion(node))
            for link in self.base.links():
                if frozenset((link.tail, link.head)) in self._failed_fibers:
                    continue
                costs = {
                    w: c
                    for w, c in link.costs.items()
                    if (link.tail, link.head, w) not in self._failed_channels
                }
                view.add_link(link.tail, link.head, costs)
            return view

    # -- event application ----------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one event: mutate fault state, notify the service."""
        kind = event.kind
        with self._lock:
            if kind == "link_fail":
                self._failed_fibers.add(frozenset((event.tail, event.head)))
            elif kind == "link_recover":
                self._failed_fibers.discard(frozenset((event.tail, event.head)))
            elif kind == "channel_fail":
                self._failed_channels.add(
                    (event.tail, event.head, event.wavelength)
                )
            elif kind == "channel_recover":
                self._failed_channels.discard(
                    (event.tail, event.head, event.wavelength)
                )
            elif kind == "converter_fail":
                self._failed_converters.add(event.node)
            elif kind == "converter_recover":
                self._failed_converters.discard(event.node)
            elif kind == "latency":
                self._engine_faults.append(("latency", float(event.amount)))
            elif kind == "exception":
                for _ in range(max(1, int(event.amount or 1))):
                    self._engine_faults.append(("exception", 0.0))
            elif kind in ("member_join", "member_leave"):
                # Membership churn never touches network resources; the
                # injector just records and forwards it.
                self.membership_events.append(event)
            else:
                raise ValueError(f"unknown fault event kind: {kind!r}")
            self.applied += 1
        if kind in ("member_join", "member_leave"):
            if self.membership_hook is not None:
                self.membership_hook(event)
        self._notify(event)
        if self.observer is not None:
            self.observer(kind, event.at, **{
                key: value
                for key in ("tail", "head", "wavelength", "node", "amount")
                if (value := getattr(event, key)) is not None
            })

    def _notify(self, event: FaultEvent) -> None:
        """Drive the attached service's epoch machinery for *event*.

        Every network-resource event maps to its own fine-grained
        notification, so the epoch cache sees exactly which resource
        changed and patches it in place.  Fiber events cover both
        directions — the injector fails fibers, not directed links.
        """
        service = self._service
        if service is None:
            return
        kind = event.kind
        if kind == "link_fail":
            for tail, head in ((event.tail, event.head), (event.head, event.tail)):
                if self.base.has_link(tail, head):
                    service.notify_link_degraded(tail, head, None)
        elif kind == "channel_fail":
            service.notify_link_degraded(event.tail, event.head, event.wavelength)
        elif kind == "link_recover":
            for tail, head in ((event.tail, event.head), (event.head, event.tail)):
                if self.base.has_link(tail, head):
                    service.notify_link_recovered(tail, head, None)
        elif kind == "channel_recover":
            service.notify_link_recovered(event.tail, event.head, event.wavelength)
        elif kind == "converter_fail":
            service.notify_converter_degraded(event.node)
        elif kind == "converter_recover":
            service.notify_converter_recovered(event.node)
        # Engine-level faults (latency/exception) and
        # membership events (member_join/member_leave) do not change the
        # network; no epoch bump.

    # -- engine-side hook ------------------------------------------------------

    def worker_hook(self) -> None:
        """Consume one pending engine fault; called per backend attempt.

        Installed as ``RoutingService.fault_hook`` by :meth:`attach`.
        Latency faults sleep; exception faults raise
        :class:`~repro.exceptions.InjectedFaultError` (a
        :class:`~repro.exceptions.TransientBackendError`, so the service's
        retry/breaker hardening engages exactly as for a real flaky
        backend).
        """
        with self._lock:
            if not self._engine_faults:
                return
            kind, amount = self._engine_faults.popleft()
        if kind == "latency":
            self._sleep(amount)
        else:
            raise InjectedFaultError("injected backend exception")
