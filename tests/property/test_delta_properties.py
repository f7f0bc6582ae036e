"""Property-based parity for in-place overlay maintenance.

The delta-epoch machinery promises that patching is *observationally
invisible*: after any sequence of fail/recover events, an overlay
maintained in place by :class:`~repro.shortestpath.DeltaOverlay` must be
indistinguishable from one built fresh off the degraded network —
byte-identical CSR on materialization, hop-for-hop identical routes when
served through the epoch cache.  These tests drive both
promises from hypothesis-generated networks and churn sequences,
including the awkward cases: duplicate fails, recoveries of resources
that were never down (which force a full rebuild), and fiber events on
unidirectional links.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent
from repro.service.service import RoutingService
from repro.shortestpath import DeltaOverlay
from tests.strategies import wdm_networks


@st.composite
def churn_cases(draw):
    """A network plus a fault/recovery sequence over its real resources.

    Recover events may target resources that are currently up (hypothesis
    orders events freely), exercising the recover-of-unknown -> full
    rebuild path alongside plain patches.
    """
    net = draw(wdm_networks(max_nodes=6, max_wavelengths=3))
    channels = [
        (link.tail, link.head, w)
        for link in net.links()
        for w in sorted(link.costs)
    ]
    links = sorted({(t, h) for t, h, _ in channels})
    nodes = net.nodes()
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["channel", "link", "converter"]))
        fail = draw(st.booleans())
        if kind == "channel" and channels:
            tail, head, w = draw(st.sampled_from(channels))
            ops.append(
                (
                    "channel_fail" if fail else "channel_recover",
                    {"tail": tail, "head": head, "wavelength": w},
                )
            )
        elif kind == "link" and links:
            tail, head = draw(st.sampled_from(links))
            ops.append(
                (
                    "link_fail" if fail else "link_recover",
                    {"tail": tail, "head": head},
                )
            )
        else:
            node = draw(st.sampled_from(nodes))
            ops.append(
                (
                    "converter_fail" if fail else "converter_recover",
                    {"node": node},
                )
            )
    return net, ops


def _apply_to_delta(delta, base, kind, kw):
    """Mirror one injector event onto *delta*; None means rebuild needed.

    Fiber events cover both directions but only those that exist as
    directed links — the same filtering the injector's service
    notifications perform.
    """
    if kind == "channel_fail":
        return delta.fail_channel(kw["tail"], kw["head"], kw["wavelength"])
    if kind == "channel_recover":
        return delta.recover_channel(kw["tail"], kw["head"], kw["wavelength"])
    if kind == "converter_fail":
        return delta.fail_converter(kw["node"])
    if kind == "converter_recover":
        return delta.recover_converter(kw["node"])
    out = []
    for tail, head in (
        (kw["tail"], kw["head"]),
        (kw["head"], kw["tail"]),
    ):
        if not base.has_link(tail, head):
            continue
        slots = (
            delta.fail_link(tail, head)
            if kind == "link_fail"
            else delta.recover_link(tail, head)
        )
        if slots is None:
            return None
        out.extend(slots)
    return out


@given(case=churn_cases())
@settings(max_examples=40, deadline=None)
def test_patched_overlay_materializes_byte_identical(case):
    net, ops = case
    injector = FaultInjector(net)
    delta = DeltaOverlay(LiangShenRouter(net, heap="flat").all_pairs_graph())
    for kind, kw in ops:
        injector.apply(FaultEvent(0.5, kind, **kw))
        if _apply_to_delta(delta, net, kind, kw) is None:
            # Recover of a resource the overlay never saw fail: the real
            # cache rebuilds here, and so does the mirror.
            view = injector.network_view()
            delta = DeltaOverlay(
                LiangShenRouter(view, heap="flat").all_pairs_graph()
            )
    view = injector.network_view()
    fresh = LiangShenRouter(view, heap="flat").all_pairs_graph()
    patched = delta.materialize()
    assert patched.graph.num_nodes == fresh.graph.num_nodes
    assert patched.graph.csr() == fresh.graph.csr()
    assert list(patched.decode) == list(fresh.decode)


@given(case=churn_cases())
@settings(max_examples=25, deadline=None)
def test_incremental_cache_routes_match_fresh_router(case):
    net, ops = case
    nodes = net.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t][:3]
    injector = FaultInjector(net)
    service = RoutingService(injector.network_view)
    injector.attach(service)
    for kind, kw in ops:
        injector.apply(FaultEvent(0.5, kind, **kw))
        fresh = LiangShenRouter(injector.network_view(), heap="flat")
        for source, target in pairs:
            try:
                served = service.cache.route(source, target)
            except NoPathError:
                served = None
            try:
                expected = fresh.route(source, target).path
            except NoPathError:
                expected = None
            if expected is None:
                assert served is None, (kind, source, target)
            else:
                assert served is not None, (kind, source, target)
                assert served.hops == expected.hops, (kind, source, target)
                assert served.total_cost == expected.total_cost
