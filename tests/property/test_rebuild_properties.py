"""Property tests for one admission's rebuild: residual network and ``G'``.

Each admission copies the network into its residual (occupied channels
removed) and builds ``G'`` on it.  These tests pin that rebuild to
plain reference constructions written here:

* bulk edge emission plus :meth:`GraphBuilder.build` must give the CSR
  arrays, ``edge_ids``, decode list and id maps that per-edge
  ``add_edge`` calls plus a textbook stable counting sort give, for
  ``G'``, ``G_{s,t}`` and ``G_all`` on ``repro.verify`` scenario networks
  of every conversion-model family;
* :class:`WavelengthState`'s per-link occupancy must agree with a scan
  of every reserved channel, and ``residual_network()`` with a network
  rebuilt by ``add_node``/``add_link``, under every packing mode, over
  random reserve/release traces (blocked requests included) — and the
  source network's cost tables must come out untouched;
* importing the provisioner or the Eq. 1 certificate must not load the
  serving tier, the optional subsystems or their heavy stdlib modules.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.auxiliary import (
    KIND_IN,
    KIND_OUT,
    KIND_SINK,
    KIND_SOURCE,
    AuxNode,
    build_all_pairs_graph,
    build_layered_graph,
    build_routing_graph,
)
from repro.core.conversion import NoConversion
from repro.core.network import WDMNetwork
from repro.exceptions import NoPathError, ReservationError
from repro.shortestpath.structures import GraphBuilder
from repro.verify.scenarios import CONVERSION_KINDS, random_scenario
from repro.wdm.provisioning import SemilightpathProvisioner
from tests.strategies import wdm_networks

# -- reference constructions ---------------------------------------------------


def _counting_sort(num_nodes, edges):
    """CSR arrays of *edges* (``(tail, head, weight, tag)`` in insertion
    order) by the textbook stable counting sort on tails."""
    counts = [0] * (num_nodes + 1)
    for tail, _head, _weight, _tag in edges:
        counts[tail + 1] += 1
    for i in range(1, num_nodes + 1):
        counts[i] += counts[i - 1]
    cursor = counts[:]
    heads = [0] * len(edges)
    weights = [0.0] * len(edges)
    tags = [0] * len(edges)
    edge_ids = [0] * len(edges)
    for eid, (tail, head, weight, tag) in enumerate(edges):
        slot = cursor[tail]
        cursor[tail] += 1
        heads[slot], weights[slot], tags[slot], edge_ids[slot] = head, weight, tag, eid
    return counts, heads, weights, tags, edge_ids


def _reference_layered(network, terminals):
    """``G'`` emitted one ``add_edge`` at a time, then the virtual
    terminals of *terminals*: a ``(source, target)`` pair, ``"all"`` or
    ``None``."""
    decode, x_ids, y_ids = [], {}, {}
    for v in network.nodes():
        for lam in sorted(network.lambda_in(v)):
            x_ids[(v, lam)] = len(decode)
            decode.append(AuxNode(KIND_IN, v, lam))
        for lam in sorted(network.lambda_out(v)):
            y_ids[(v, lam)] = len(decode)
            decode.append(AuxNode(KIND_OUT, v, lam))
    edges = []
    for v in network.nodes():
        lam_in = sorted(network.lambda_in(v))
        lam_out = sorted(network.lambda_out(v))
        for p, q, cost in network.conversion(v).finite_pairs(lam_in, lam_out):
            edges.append((x_ids[(v, p)], y_ids[(v, q)], float(cost), -1))
    for link in network.links():
        for lam in sorted(link.costs):
            edges.append((y_ids[(link.tail, lam)], x_ids[(link.head, lam)], link.costs[lam], -1))
    extra = {}
    if terminals == "all":
        source_ids, sink_ids = {}, {}
        for v in network.nodes():
            source_ids[v] = len(decode)
            decode.append(AuxNode(KIND_SOURCE, v, -1))
            sink_ids[v] = len(decode)
            decode.append(AuxNode(KIND_SINK, v, -1))
        edges += [(source_ids[v], aux, 0.0, -1) for (v, _lam), aux in y_ids.items()]
        edges += [(aux, sink_ids[v], 0.0, -1) for (v, _lam), aux in x_ids.items()]
        extra = {"source_ids": source_ids, "sink_ids": sink_ids}
    elif terminals is not None:
        source, target = terminals
        source_id, sink_id = len(decode), len(decode) + 1
        decode += [AuxNode(KIND_SOURCE, source, -1), AuxNode(KIND_SINK, target, -1)]
        edges += [(source_id, aux, 0.0, -1) for (v, _lam), aux in y_ids.items() if v == source]
        edges += [(aux, sink_id, 0.0, -1) for (v, _lam), aux in x_ids.items() if v == target]
        extra = {"source_id": source_id, "sink_id": sink_id}
    return _counting_sort(len(decode), edges), decode, x_ids, y_ids, extra


def _as_built(aux, extra_keys):
    offsets, heads, weights, tags = aux.graph.csr()
    arrays = (list(offsets), list(heads), list(weights), list(tags), list(aux.graph.edge_ids))
    extra = {key: getattr(aux, key) for key in extra_keys}
    return arrays, aux.decode, aux.x_ids, aux.y_ids, extra


def _assert_same_build(built, reference):
    (arrays, decode, x_ids, y_ids, extra) = built
    (ref_arrays, ref_decode, ref_x, ref_y, ref_extra) = reference
    assert arrays == tuple(ref_arrays)
    assert decode == ref_decode
    # Insertion order too: the overlay's per-node tables derive from it.
    assert list(x_ids.items()) == list(ref_x.items())
    assert list(y_ids.items()) == list(ref_y.items())
    for key, value in ref_extra.items():
        assert extra[key] == value
        if isinstance(value, dict):
            assert list(extra[key].items()) == list(value.items())


def _scenario_of_family(seed: int, family: str):
    """The first ``repro.verify`` scenario at or after *seed* whose
    conversion model is of *family*."""
    while True:
        scenario = random_scenario(seed)
        if scenario.description.endswith(f"conversion={family}"):
            return scenario
        seed += 1


# -- (a) bulk emission and the C-level counting sort ----------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), family=st.sampled_from(CONVERSION_KINDS), data=st.data())
def test_bulk_build_matches_per_edge_reference(seed, family, data):
    network = _scenario_of_family(seed, family).network
    _assert_same_build(_as_built(build_layered_graph(network), ()), _reference_layered(network, None))
    _assert_same_build(
        _as_built(build_all_pairs_graph(network), ("source_ids", "sink_ids")),
        _reference_layered(network, "all"),
    )
    nodes = network.nodes()
    source = data.draw(st.sampled_from(nodes))
    target = data.draw(st.sampled_from([v for v in nodes if v != source]))
    _assert_same_build(
        _as_built(build_routing_graph(network, source, target), ("source_id", "sink_id")),
        _reference_layered(network, (source, target)),
    )


edge_lists = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, max(n - 1, 0)),
                st.integers(0, max(n - 1, 0)),
                st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
            ),
            max_size=0 if n == 0 else 40,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(case=edge_lists, split=st.integers(0, 40))
def test_add_edges_equals_add_edge(case, split):
    """Bulk adds, split into two batches anywhere, build what single adds
    build, and both match the reference counting sort."""
    num_nodes, edges = case
    bulk = GraphBuilder(num_nodes)
    single = GraphBuilder(num_nodes)
    for part in (edges[:split], edges[split:]):
        ids = bulk.add_edges([e[0] for e in part], [e[1] for e in part], [e[2] for e in part])
        assert list(ids) == [single.add_edge(*edge) for edge in part]
    built = [bulk.build(), single.build()]
    reference = _counting_sort(num_nodes, [(t, h, w, -1) for t, h, w in edges])
    for graph in built:
        offsets, heads, weights, tags = graph.csr()
        assert (list(offsets), list(heads), list(weights), list(tags), list(graph.edge_ids)) == reference


@pytest.mark.parametrize(
    "tails, heads, weights, error",
    [
        ([0, 3], [1, 1], [1.0, 1.0], IndexError),
        ([0, -1], [1, 1], [1.0, 1.0], IndexError),
        ([0, 1], [1, 3], [1.0, 1.0], IndexError),
        ([0, 1], [1, 2], [1.0, -0.5], ValueError),
        ([0, 1], [1, 2], [1.0, math.inf], ValueError),
        ([0, 1], [1, 2], [math.nan, 1.0], ValueError),
        ([0, 1], [1], [1.0, 1.0], ValueError),
    ],
)
def test_add_edges_checks_whole_arrays(tails, heads, weights, error):
    builder = GraphBuilder(3)
    builder.add_edge(0, 1, 1.0)
    with pytest.raises(error):
        builder.add_edges(tails, heads, weights)
    assert builder.num_edges == 1  # nothing of the failed batch was added


# -- (b) occupancy and the residual network -------------------------------------


def _reference_residual(provisioner):
    """The residual rebuilt by ``add_node``/``add_link``, every node's
    model explicit — the construction the provisioner used to run."""
    network = provisioner.network
    residual = WDMNetwork(
        network.num_wavelengths,
        default_conversion=network.conversion(network.nodes()[0]),
    )
    for node in network.nodes():
        residual.add_node(node, network.conversion(node))
    bias = provisioner._packing_bias()
    for link in network.links():
        held = provisioner.state.occupied_on(link.tail, link.head)
        residual.add_link(
            link.tail,
            link.head,
            {w: c + bias[w] for w, c in link.costs.items() if w not in held},
        )
    return residual


def _shape(network):
    return (
        network.nodes(),
        [(link.tail, link.head, list(link.costs.items())) for link in network.links()],
        [[link.tail for link in network.in_links(v)] for v in network.nodes()],
        [network.conversion(v) for v in network.nodes()],
        network.num_links,
    )


@st.composite
def admission_traces(draw):
    network = draw(wdm_networks(max_nodes=6, max_wavelengths=3))
    for node in network.nodes():
        if draw(st.booleans()):
            network.set_conversion(node, NoConversion())
    nodes = network.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("arrive"), st.sampled_from(pairs)),
                st.tuples(st.just("depart"), st.integers(0, 50)),
                st.tuples(st.just("double"), st.integers(0, 50)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    packing = draw(st.sampled_from(["none", "most-used", "least-used"]))
    return network, steps, packing


@settings(max_examples=120, deadline=None)
@given(trace=admission_traces())
def test_occupancy_and_residual_match_references(trace):
    network, steps, packing = trace
    before = [(link.tail, link.head, dict(link.costs)) for link in network.links()]
    provisioner = SemilightpathProvisioner(network, packing=packing)
    state = provisioner.state
    live = []
    for kind, arg in steps:
        if kind == "arrive":
            try:
                live.append(provisioner.establish(*arg))
            except NoPathError:
                pass  # blocked
        elif kind == "depart" and live:
            provisioner.teardown(live.pop(arg % len(live)))
        elif kind == "double" and live:
            # A second reservation of held channels is refused whole.
            snapshot = state.occupied_channels()
            with pytest.raises(ReservationError):
                provisioner.admit_path(live[arg % len(live)].path)
            assert state.occupied_channels() == snapshot

        held = {
            (hop.tail, hop.head, hop.wavelength)
            for connection in live
            for hop in connection.path.hops
        }
        assert state.occupied_channels() == held
        assert state.num_occupied == len(held)
        channels = state.occupied_channels()
        for link in network.links():
            scan = frozenset(w for t, h, w in channels if (t, h) == (link.tail, link.head))
            assert state.occupied_on(link.tail, link.head) == scan
            assert state.free_on(link.tail, link.head) == frozenset(link.costs) - scan
        assert _shape(provisioner.residual_network()) == _shape(_reference_residual(provisioner))

    assert [(link.tail, link.head, dict(link.costs)) for link in network.links()] == before


# -- (c) the provisioner's import footprint ---------------------------------------

_SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_provisioner_import_loads_no_serving_tier():
    probe = (
        "import json, sys\n"
        "import repro.wdm.provisioning, repro.verify.certificate\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    output = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(output))
    subsystems = ("server", "cluster", "service", "distributed", "baseline", "multicast")
    assert not {
        name for name in loaded if name.split(".")[:2] in [["repro", s] for s in subsystems]
    }
    assert not loaded & {"multiprocessing", "socket", "secrets"}


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.core", "repro.shortestpath", "repro.topology", "repro.wdm", "repro.verify"],
)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert name in dir(module)
        assert getattr(module, name) is not None
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018 - the lookup is the assertion
