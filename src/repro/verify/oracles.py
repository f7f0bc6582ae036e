"""The oracle matrix: every routing backend behind one uniform interface.

An :class:`Oracle` wraps one backend as ``prepare(network) -> route`` where
``route(source, target)`` returns the optimal
:class:`~repro.core.semilightpath.Semilightpath` or ``None`` when no
semilightpath exists.  :func:`default_oracles` assembles the full matrix:

====================================  =========  ==========================
oracle                                hop-exact  applicability
====================================  =========  ==========================
``liang:{overlay,rebuild}:<kernel>``  yes        always (8 combinations)
``liang:all-pairs:serial``            yes        always
``liang:delta:churn``                 yes        always
``cache:incremental``                 yes        always
``batch:lazy-forest``                 yes        always
``liang:server``                      yes        opt-in (``--server``)
``cfz:{dense,heap}``                  no         chain-free conversion only
``brute-force``                       no         small state spaces
``distributed:bellman-ford``          no         small state spaces
====================================  =========  ==========================

``batch:lazy-forest`` serves from :class:`~repro.core.batch.BatchRouter`'s
lazily-decoded parent forests — the coalesced-batch serving path.

``liang:delta:churn`` and ``cache:incremental`` answer from state that
survived a *net-zero* fail/recover churn through the in-place
maintenance layer (:class:`~repro.shortestpath.DeltaOverlay`, warm-run
repair) — a patched overlay must be indistinguishable from a pristine
one, so any masking residue surfaces as a hop disagreement.

**Hop-exact** oracles share the deterministic tie-break (equal-distance
auxiliary nodes settle in ascending id order) and must agree on the exact
hop sequence; the rest compute the same optimum by structurally different
means and are compared on cost and certificate validity only.  CFZ joins
the matrix only for chain-free conversion models — for others its
wavelength graph legitimately prices chained conversions Eq. (1) does not
(see :mod:`repro.baseline.wavelength_graph`), which would be a modeling
difference, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.baseline.brute_force import brute_force_route
from repro.baseline.cfz import CFZRouter
from repro.core.routing import LiangShenRouter
from repro.core.semilightpath import Semilightpath
from repro.distributed.semilightpath_dist import DistributedSemilightpathRouter
from repro.exceptions import DeltaParityError, NoPathError
from repro.verify.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = [
    "Oracle",
    "RouteFn",
    "ServerOracleManager",
    "default_oracles",
    "server_oracle",
    "KERNELS",
]

NodeId = Hashable
RouteFn = Callable[[NodeId, NodeId], "Semilightpath | None"]

KERNELS = ("flat", "binary", "pairing", "fibonacci")

#: ``n * k`` ceiling for the slow exact oracles (brute force enumerates
#: ``(node, wavelength)`` states; the synchronous simulator rounds scale
#: with ``kn``).  Generated scenarios always fit; corpus imports might not.
SMALL_STATE_LIMIT = 128


@dataclass(frozen=True)
class Oracle:
    """One backend of the differential matrix.

    ``prepare`` may do arbitrary per-network work (build overlays, run the
    whole all-pairs sweep) — the harness calls it once per scenario and the
    returned closure once per query.  ``exact_hops`` marks membership in
    the tie-break-pinned family that must agree hop-for-hop.
    """

    name: str
    prepare: Callable[["WDMNetwork"], RouteFn]
    exact_hops: bool = False

    def applies(self, scenario: Scenario) -> bool:
        """Whether this oracle participates for *scenario* (see module doc)."""
        network = scenario.network
        if self.name.startswith("cfz:"):
            return scenario.chain_free
        if self.name in ("brute-force", "distributed:bellman-ford"):
            return network.num_nodes * network.num_wavelengths <= SMALL_STATE_LIMIT
        return True

    def __repr__(self) -> str:
        return f"Oracle({self.name!r})"


def _none_on_nopath(route: Callable[[NodeId, NodeId], Semilightpath]) -> RouteFn:
    def wrapped(source: NodeId, target: NodeId) -> Semilightpath | None:
        try:
            return route(source, target)
        except NoPathError:
            return None

    return wrapped


def _liang_single(heap: str, overlay: bool) -> Callable[["WDMNetwork"], RouteFn]:
    def prepare(network: "WDMNetwork") -> RouteFn:
        router = LiangShenRouter(network, heap=heap, overlay=overlay)
        return _none_on_nopath(lambda s, t: router.route(s, t).path)

    return prepare


def _liang_all_pairs(network: "WDMNetwork") -> RouteFn:
    result = LiangShenRouter(network).route_all_pairs()

    def route(source: NodeId, target: NodeId) -> Semilightpath | None:
        return result.paths.get((source, target))

    return route


def _cfz(engine: str) -> Callable[["WDMNetwork"], RouteFn]:
    def prepare(network: "WDMNetwork") -> RouteFn:
        router = CFZRouter(network, engine=engine)
        return _none_on_nopath(lambda s, t: router.route(s, t).path)

    return prepare


def _churn_resources(network: "WDMNetwork"):
    """A deterministic net-zero churn sample: channels, links, a converter.

    Every third ``(link, λ)`` channel (capped), every fifth link, and the
    lowest-id node — each failed and later recovered, so the overlay must
    end exactly where it started.
    """
    channels = [
        (link.tail, link.head, w)
        for link in network.links()
        for w in sorted(link.costs)
    ]
    links = sorted({(t, h) for t, h, _ in channels})
    nodes = sorted(network.nodes(), key=repr)
    return channels[::3][:12], links[::5][:4], nodes[:1]


def _liang_delta_churn(network: "WDMNetwork") -> RouteFn:
    """Route on an overlay that survived a net-zero fail/recover churn.

    Builds the all-pairs overlay once, masks a deterministic sample of
    channels/links/converters through :class:`DeltaOverlay`, recovers
    every one of them, and only then hands out the route closure.  If the
    in-place patching is sound this is indistinguishable from a pristine
    overlay — any residue shows up as a hop-for-hop disagreement, and a
    leftover mask is reported eagerly as :class:`DeltaParityError`.
    """
    from repro.shortestpath import DeltaOverlay

    router = LiangShenRouter(network, heap="flat")
    delta = DeltaOverlay(router.all_pairs_graph())
    channels, links, converters = _churn_resources(network)
    for tail, head, w in channels:
        delta.fail_channel(tail, head, w)
    for tail, head in links:
        delta.fail_link(tail, head)
    for node in converters:
        delta.fail_converter(node)
    for node in converters:
        delta.recover_converter(node)
    for tail, head in links:
        delta.recover_link(tail, head)
    for tail, head, w in channels:
        delta.recover_channel(tail, head, w)
    if delta.masked_edges:
        raise DeltaParityError(
            f"net-zero churn left {delta.masked_edges} edge(s) masked"
        )
    return _none_on_nopath(lambda s, t: router.route_via_all_pairs(s, t).path)


def _cache_incremental(network: "WDMNetwork") -> RouteFn:
    """Route through the epoch cache after a net-zero churn.

    Exercises the whole patched-serving stack — queued delta ops, warm
    Dijkstra runs repaired in place, recovery batches — and ends on a
    state equivalent to the pristine network, so the cache must agree
    hop-for-hop with every other oracle.
    """
    from repro.service.cache import EpochRouterCache

    cache = EpochRouterCache(lambda: network)
    nodes = sorted(network.nodes(), key=repr)
    probe = _none_on_nopath(cache.route)

    def touch() -> None:
        # Force a refresh so the queued ops are patch-applied now, not
        # lazily bundled with the recoveries into one no-op batch.
        if len(nodes) >= 2:
            probe(nodes[0], nodes[1])

    channels, links, converters = _churn_resources(network)
    touch()
    for tail, head, w in channels:
        cache.mark_channel_degraded(tail, head, w)
    for tail, head in links:
        cache.mark_channel_degraded(tail, head, None)
    for node in converters:
        cache.mark_converter_failed(node)
    touch()
    for node in converters:
        cache.mark_converter_recovered(node)
    for tail, head in links:
        cache.mark_channel_recovered(tail, head, None)
    for tail, head, w in channels:
        cache.mark_channel_recovered(tail, head, w)
    touch()
    return probe


def _batch_lazy_forest(network: "WDMNetwork") -> RouteFn:
    """Serve from :class:`BatchRouter`'s lazily-decoded parent forests."""
    from repro.core.batch import BatchRouter

    router = BatchRouter(network)
    return _none_on_nopath(lambda s, t: router.route(s, t))


class ServerOracleManager:
    """Serve scenarios through a live router server (``liang:server``).

    ``prepare`` starts a fresh one-worker UDS
    :class:`~repro.server.RouterServer` for each scenario network
    (stopping the previous one), drives the same deterministic *net-zero*
    fail/recover churn as ``liang:delta:churn`` — but through wire-level
    ``PATCH`` frames, so the shared-memory write-through path is what
    gets checked — and hands out the client's route closure.  The
    returned paths must be byte-identical to every in-process hop-exact
    oracle.

    The manager outlives the harness run; the caller owns ``close()``
    (the CLI wraps fuzz/verify in ``try/finally``) and should assert
    :func:`repro.shortestpath.shared.leaked_segments` is empty after.
    """

    def __init__(self) -> None:
        self._server = None
        self._client = None
        #: Scenario servers started so far (smoke-test observability).
        self.scenarios = 0

    def prepare(self, network: "WDMNetwork") -> RouteFn:
        from repro.server import RouterClient, RouterServer

        self.close()
        self._server = RouterServer(network, workers=1, uds="").start()
        self._client = RouterClient(self._server.address)
        self.scenarios += 1
        channels, links, converters = _churn_resources(network)
        fail = (
            [("fail_channel", c) for c in channels]
            + [("fail_link", link) for link in links]
            + [("fail_converter", (n,)) for n in converters]
        )
        recover = (
            [("recover_converter", (n,)) for n in converters]
            + [("recover_link", link) for link in links]
            + [("recover_channel", c) for c in channels]
        )
        if fail:
            self._client.patch(fail)
            self._client.patch(recover)
        residue = self._client.snapshot()["masked_edges"]
        if residue:
            raise DeltaParityError(
                f"server-side net-zero churn left {residue} edge(s) masked"
            )
        return _none_on_nopath(self._client.route)

    def close(self) -> None:
        """Shut the current scenario's server down (idempotent)."""
        client, self._client = self._client, None
        server, self._server = self._server, None
        if client is not None:
            try:
                client.shutdown()
            except Exception:
                pass
        if server is not None:
            server.close()


def server_oracle(manager: ServerOracleManager) -> Oracle:
    """The ``liang:server`` oracle over *manager*'s live servers.

    Not part of :func:`default_oracles` — starting a server per scenario
    is too heavy for the tier-1 suite; the CLI adds it behind
    ``repro fuzz/verify --server`` and CI's server-smoke job runs it for
    60 seconds at seed 1998.
    """
    return Oracle(
        name="liang:server", prepare=manager.prepare, exact_hops=True
    )


def _brute_force(network: "WDMNetwork") -> RouteFn:
    return _none_on_nopath(lambda s, t: brute_force_route(network, s, t))


def _distributed(network: "WDMNetwork") -> RouteFn:
    router = DistributedSemilightpathRouter(network)
    return _none_on_nopath(lambda s, t: router.route(s, t).path)


def default_oracles() -> tuple[Oracle, ...]:
    """The full matrix, reference oracle (``liang:overlay:flat``) first."""
    oracles: list[Oracle] = []
    for overlay in (True, False):
        mode = "overlay" if overlay else "rebuild"
        for kernel in KERNELS:
            oracles.append(
                Oracle(
                    name=f"liang:{mode}:{kernel}",
                    prepare=_liang_single(kernel, overlay),
                    exact_hops=True,
                )
            )
    oracles.append(
        Oracle(
            name="liang:all-pairs:serial",
            prepare=_liang_all_pairs,
            exact_hops=True,
        )
    )
    oracles.append(
        Oracle(
            name="liang:delta:churn",
            prepare=_liang_delta_churn,
            exact_hops=True,
        )
    )
    oracles.append(
        Oracle(
            name="cache:incremental",
            prepare=_cache_incremental,
            exact_hops=True,
        )
    )
    oracles.append(
        Oracle(
            name="batch:lazy-forest",
            prepare=_batch_lazy_forest,
            exact_hops=True,
        )
    )
    oracles.append(Oracle(name="cfz:dense", prepare=_cfz("dense")))
    oracles.append(Oracle(name="cfz:heap", prepare=_cfz("heap")))
    oracles.append(Oracle(name="brute-force", prepare=_brute_force))
    oracles.append(
        Oracle(name="distributed:bellman-ford", prepare=_distributed)
    )
    return tuple(oracles)


def multicast_oracle_cost(network, request, splitters=None):
    """Exact small-instance cost of an optimal light-hierarchy.

    The multicast analog of the ``brute-force`` unicast oracle: a
    Dreyfus–Wagner dynamic program over the channel graph, exponential in
    the member count and therefore gated behind
    :data:`repro.multicast.oracle.MAX_ORACLE_MEMBERS` by callers.
    Re-exported here (lazily — the multicast package imports this module's
    siblings) so differential-verification consumers find every reference
    implementation in one place.  Returns ``math.inf`` when infeasible.
    """
    from repro.multicast.oracle import optimal_hierarchy_cost

    return optimal_hierarchy_cost(network, request, splitters=splitters)


__all__.append("multicast_oracle_cost")
