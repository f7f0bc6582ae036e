"""Reference-topology identity: the hot path changes *speed*, not answers.

The seed router answered single-pair queries by rebuilding ``G_{s,t}``
per query over an addressable binary heap.  The overhauled default
answers them on the shared ``G'`` overlay with the flat kernel.  On
every reference topology the two must agree **exactly** — same float
cost bit-for-bit and, because all kernels share the ascending-id
tie-break, the same hop sequence — and every pair of the serial
all-pairs sweep must match its single-pair answer.
"""

import pytest

from repro.core.conversion import (
    FixedCostConversion,
    MatrixConversion,
    NoConversion,
    RangeLimitedConversion,
)
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.exceptions import NoPathError
from repro.topology.generators import grid_network, ring_network, waxman_network
from repro.topology.reference import (
    arpanet_network,
    nsfnet_network,
    paper_figure1_network,
)


def mixed_models_network():
    """Every conversion model on one small network, with k₀ = 2 < k = 3."""
    net = WDMNetwork(num_wavelengths=3, default_conversion=FixedCostConversion(0.5))
    for v in range(5):
        net.add_node(v)
    net.set_conversion(1, NoConversion())
    net.set_conversion(2, RangeLimitedConversion(1, cost_per_step=0.25))
    net.set_conversion(
        3, MatrixConversion({(0, 1): 1.0, (1, 2): 1.0, (2, 0): 2.0, (1, 1): 0.0})
    )
    net.add_link(0, 1, {0: 1.0, 1: 2.0})
    net.add_link(1, 2, {1: 1.0, 2: 0.5})
    net.add_link(2, 3, {0: 0.25, 2: 1.0})
    net.add_link(3, 4, {1: 1.5})
    net.add_link(4, 0, {0: 2.0, 1: 0.5})
    net.add_link(1, 3, {2: 3.0})
    return net


TOPOLOGIES = {
    "paper_fig1": lambda: paper_figure1_network(),
    "nsfnet": lambda: nsfnet_network(num_wavelengths=4, seed=1),
    "arpanet": lambda: arpanet_network(num_wavelengths=4, seed=2),
    "ring16": lambda: ring_network(16, 4, seed=3),
    "grid4x4": lambda: grid_network(4, 4, 3, seed=4),
    "waxman20": lambda: waxman_network(20, 4, seed=5),
    "mixed_models": mixed_models_network,
}


def try_route(router, s, t):
    try:
        return router.route(s, t)
    except NoPathError:
        return None


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_default_path_identical_to_seed_configuration(name):
    """Overlay + flat vs per-query rebuild + binary heap: exact agreement."""
    net = TOPOLOGIES[name]()
    seed_router = LiangShenRouter(net, heap="binary", overlay=False)
    hot_router = LiangShenRouter(net)
    for s in net.nodes():
        for t in net.nodes():
            if s == t:
                continue
            seed = try_route(seed_router, s, t)
            hot = try_route(hot_router, s, t)
            if seed is None:
                assert hot is None, (name, s, t)
            else:
                assert hot is not None, (name, s, t)
                # Exact float equality, not approx: both paths sum the
                # same edge weights in the same order.
                assert hot.cost == seed.cost, (name, s, t)
                assert hot.path.hops == seed.path.hops, (name, s, t)


@pytest.mark.parametrize("name", ["paper_fig1", "nsfnet", "ring16"])
def test_all_pairs_serial_parallel_and_single_agree(name):
    net = TOPOLOGIES[name]()
    router = LiangShenRouter(net)
    serial = router.route_all_pairs()
    for (s, t), path in serial.paths.items():
        single = try_route(router, s, t)
        assert single is not None
        assert single.path.hops == path.hops
        assert single.cost == path.total_cost


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_routed_paths_validate_on_their_network(name):
    net = TOPOLOGIES[name]()
    router = LiangShenRouter(net)
    for (_s, _t), path in router.route_all_pairs().paths.items():
        path.validate(net)
