"""The ``liang:server`` oracle: live-server membership in the matrix.

The heavy end-to-end behaviour (byte-identity, crash recovery, protocol
abuse) lives in ``tests/server``; this module pins the *verify-layer*
contract: the oracle slots into :class:`DifferentialHarness` cleanly,
each scenario gets a fresh server driven through net-zero wire PATCH
churn, the manager's lifecycle is idempotent, and no shared-memory
segment outlives a run.
"""

import pytest

from repro.core.routing import LiangShenRouter
from repro.shortestpath.shared import leaked_segments
from repro.verify.harness import DifferentialHarness
from repro.verify.oracles import (
    Oracle,
    ServerOracleManager,
    default_oracles,
    server_oracle,
)
from repro.verify.scenarios import random_scenario

FAST = default_oracles()


@pytest.fixture
def manager():
    mgr = ServerOracleManager()
    yield mgr
    mgr.close()


def test_server_oracle_shape(manager):
    oracle = server_oracle(manager)
    assert isinstance(oracle, Oracle)
    assert oracle.name == "liang:server"
    assert oracle.exact_hops
    # Applies everywhere — no gating predicate like cfz/brute-force.
    assert oracle.applies(random_scenario(0))


def test_not_part_of_the_default_matrix():
    names = [oracle.name for oracle in default_oracles()]
    assert "liang:server" not in names


def test_harness_run_with_live_server_agrees(manager):
    before = set(leaked_segments())
    harness = DifferentialHarness([FAST[0], server_oracle(manager)])
    for seed in (0, 1):
        report = harness.run(random_scenario(seed))
        assert report.ok, report.format()
        assert "liang:server" in report.oracle_names
    assert manager.scenarios == 2
    manager.close()
    assert set(leaked_segments()) - before == set()


def test_prepare_routes_match_local_router_after_churn():
    mgr = ServerOracleManager()
    try:
        scenario = random_scenario(5)
        route = mgr.prepare(scenario.network)
        local = LiangShenRouter(scenario.network, heap="flat")
        for source, target in scenario.queries[:6]:
            got = route(source, target)
            try:
                expected = local.route(source, target).path
            except Exception:
                expected = None
            assert got == expected, (source, target)
    finally:
        mgr.close()


def test_prepare_replaces_previous_server(manager):
    first = random_scenario(0).network
    second = random_scenario(1).network
    manager.prepare(first)
    first_segment = manager._server.segment_name
    manager.prepare(second)
    assert manager.scenarios == 2
    # The first scenario's server is gone, segment unlinked.
    assert first_segment not in leaked_segments()


def test_close_is_idempotent(manager):
    manager.prepare(random_scenario(0).network)
    segment = manager._server.segment_name
    manager.close()
    manager.close()
    assert segment not in leaked_segments()
    assert manager._server is None and manager._client is None
