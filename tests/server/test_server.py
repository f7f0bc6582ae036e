"""End-to-end server tests: byte-identity, faults, crashes, cleanup.

One module-scoped UDS server (debug mode, 2 workers) backs most tests;
the differential anchor is always the in-process
:class:`~repro.core.routing.LiangShenRouter` on the same network —
every hop and every cost must match exactly, including after PATCH
frames have written fault batches through shared memory.  The rougher
suites get their own short-lived servers: raw-socket malformed frames,
worker SIGKILL mid-request, TCP parity, and shutdown cleanup.
"""

import os
import socket
import sys
import threading
import time

import pytest

from repro.core.routing import LiangShenRouter
from repro.exceptions import (
    NoPathError,
    ProtocolError,
    RemoteRouterError,
    WorkerCrashError,
)
from repro.faults.resilience import RetryPolicy
from repro.server import RouterClient, RouterServer
from repro.server import protocol
from repro.server.protocol import Op
from repro.shortestpath.delta import DeltaOverlay
from repro.shortestpath.shared import leaked_segments
from repro.topology.generators import degree_bounded_network
from repro.topology.reference import paper_figure1_network


@pytest.fixture(scope="module")
def server():
    with RouterServer(
        paper_figure1_network(), workers=2, uds="", debug=True
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with RouterClient(server.address) as cli:
        yield cli


@pytest.fixture(scope="module")
def network():
    return paper_figure1_network()


@pytest.fixture(scope="module")
def local_router(network):
    return LiangShenRouter(network)


# -- differential byte-identity ----------------------------------------------


def test_route_matches_in_process_router(client, local_router, network):
    nodes = network.nodes()
    for source in nodes:
        for target in nodes:
            if source == target:
                continue
            try:
                expected = local_router.route(source, target).path
            except NoPathError:
                with pytest.raises(NoPathError):
                    client.route(source, target)
                continue
            remote = client.route(source, target)
            assert remote == expected
            assert remote.hops == expected.hops
            assert remote.total_cost == expected.total_cost


def test_route_batch_matches_and_marks_unreachable(client, local_router, network):
    nodes = network.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    remote = client.route_batch(pairs)
    assert len(remote) == len(pairs)
    for (source, target), got in zip(pairs, remote):
        try:
            expected = local_router.route(source, target).path
        except NoPathError:
            expected = None
        assert got == expected


def _batch_all_pairs(client, network):
    """Every ordered pair through one ``ROUTE_BATCH`` frame, as a
    ``route_all_pairs()``-shaped dict (unreachable pairs absent)."""
    nodes = network.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    return {
        pair: path
        for pair, path in zip(pairs, client.route_batch(pairs))
        if path is not None
    }


@pytest.fixture(scope="module", params=["paper-fig1", "degree-bounded-24"])
def all_pairs_target(request, client, local_router, network):
    """A live client, its network, and the in-process router it must match.

    The 24-node WAN, on its own 2-worker server, sends 23 targets per
    source in one batch, so a worker's tree answers later targets from a
    search it stopped at earlier ones.
    """
    if request.param == "paper-fig1":
        yield client, network, local_router
        return
    network = degree_bounded_network(24, 4, seed=1998)
    with RouterServer(network, workers=2, uds="") as srv:
        with RouterClient(srv.address) as cli:
            yield cli, network, LiangShenRouter(network)


def test_route_all_pairs_is_serial_identical(all_pairs_target):
    client, network, local_router = all_pairs_target
    serial = local_router.route_all_pairs()
    assert _batch_all_pairs(client, network) == serial.paths


def test_snapshot_and_stats_shapes(client, server, network):
    snapshot = client.snapshot()
    assert snapshot["segment"] == server.segment_name
    assert snapshot["workers"] == 2
    assert snapshot["nodes"] > len(network.nodes())
    stats = client.stats()
    assert len(stats["workers"]) == 2
    assert all(w["alive"] for w in stats["workers"])
    assert stats["pending"] == 0


# -- PATCH parity vs the in-process overlay ----------------------------------


def test_patch_parity_against_in_process_delta(client, local_router, network):
    """Wire PATCH faults must route exactly like a local DeltaOverlay.

    The model mirrors the worker bit-for-bit: a private ``G_all`` with a
    DeltaOverlay applying the same events, queried with ``run_tree``.
    """
    from repro.core.auxiliary import build_all_pairs_graph
    from repro.core.routing import run_tree

    model_aux = build_all_pairs_graph(network)
    model_delta = DeltaOverlay(model_aux)
    links = list(network.links())
    fail_ops = [("fail_link", (links[0].tail, links[0].head))]
    lam = sorted(links[1].costs)[0]
    fail_ops.append(("fail_channel", (links[1].tail, links[1].head, lam)))

    reply = client.patch(fail_ops)
    assert reply["epoch"] % 2 == 0
    assert reply["inexpressible"] == []
    assert reply["changed_slots"] > 0
    for name, args in fail_ops:
        getattr(model_delta, name)(*args)

    try:
        for source in network.nodes():
            tree, _run = run_tree(model_aux, source)
            for target in network.nodes():
                if source == target:
                    continue
                expected = tree.get(target)
                try:
                    got = client.route(source, target)
                except NoPathError:
                    got = None
                assert got == expected, (source, target)
    finally:
        recover_ops = [
            (name.replace("fail_", "recover_"), args)
            for name, args in fail_ops
        ]
        reply = client.patch(recover_ops)
        for name, args in recover_ops:
            getattr(model_delta, name)(*args)
    assert reply["masked_edges"] == 0

    # Net-zero churn: back to the pristine all-pairs answer.
    pristine = local_router.route_all_pairs()
    assert _batch_all_pairs(client, network) == pristine.paths


def test_patch_rejects_malformed_ops(client):
    with pytest.raises((ProtocolError, RemoteRouterError)):
        client.patch([("drop_table", ("a", "b"))])
    with pytest.raises((ProtocolError, RemoteRouterError)):
        client.patch("not-a-list")
    # The server survived both rejections.
    assert client.stats()["pending"] == 0


# -- protocol abuse over a raw socket ----------------------------------------


def _raw_connect(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(server.address)
    return sock


def test_garbage_bytes_get_err_then_disconnect(server, client):
    sock = _raw_connect(server)
    try:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 32)
        reply = protocol.read_frame(sock)
        assert reply is not None
        op, payload = reply
        assert op == Op.ERR
        assert payload[0] == "ProtocolError"
        # The connection is dropped after a framing error (a reset is
        # fine too: the server closed with our junk still buffered).
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass
    finally:
        sock.close()
    # The server itself is unharmed.
    assert client.stats()["pending"] == 0


def test_truncated_frame_drops_connection_only(server, client):
    frame = protocol.encode_frame(Op.ROUTE, (1, 2))
    sock = _raw_connect(server)
    try:
        sock.sendall(frame[: len(frame) - 3])
        sock.shutdown(socket.SHUT_WR)
        # Mid-frame EOF: the server may manage a best-effort ERR or just
        # close; either way it must not hang or die.
        sock.settimeout(5.0)
        try:
            data = sock.recv(4096)
        except OSError:
            data = b""
        if data:
            op, payload, _consumed = protocol.decode_frame(data)
            assert op == Op.ERR
    finally:
        sock.close()
    assert client.route(1, 2) is not None


def test_oversized_declared_length_rejected(server, client):
    header = protocol._HEADER.pack(
        protocol.MAGIC, protocol.VERSION, int(Op.ROUTE), 0, protocol.MAX_PAYLOAD + 1
    )
    sock = _raw_connect(server)
    try:
        sock.sendall(header)
        reply = protocol.read_frame(sock)
        assert reply is not None and reply[0] == Op.ERR
        assert "MAX_PAYLOAD" in reply[1][1]
    finally:
        sock.close()
    assert client.stats()["pending"] == 0


def test_unknown_opcode_via_forged_frame(server, client):
    import pickle

    body = pickle.dumps((1, 2))
    header = protocol._HEADER.pack(
        protocol.MAGIC, protocol.VERSION, 0x39, 0, len(body)
    )
    sock = _raw_connect(server)
    try:
        sock.sendall(header + body)
        reply = protocol.read_frame(sock)
        assert reply is not None and reply[0] == Op.ERR
    finally:
        sock.close()
    assert client.stats()["pending"] == 0


# -- concurrency --------------------------------------------------------------


def test_concurrent_clients_agree_with_local_router(server, local_router, network):
    nodes = network.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    expected = {}
    for source, target in pairs:
        try:
            expected[(source, target)] = local_router.route(source, target).path
        except NoPathError:
            expected[(source, target)] = None
    mismatches = []
    errors = []

    def hammer(rounds):
        try:
            with RouterClient(server.address) as cli:
                for _ in range(rounds):
                    for source, target in pairs:
                        try:
                            got = cli.route(source, target)
                        except NoPathError:
                            got = None
                        if got != expected[(source, target)]:
                            mismatches.append((source, target, got))
        except Exception as exc:  # noqa: BLE001 - reported via the list
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(3,), daemon=True)
        for _ in range(4)
    ]
    # More clients than workers, and short switches between the server's
    # in-process handler threads as they check workers out and back in.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []
    with RouterClient(server.address) as cli:
        assert cli.stats()["pending"] == 0


def test_sleep_requires_debug_flag(network):
    with RouterServer(network, workers=1, uds="") as srv:
        with RouterClient(srv.address) as cli:
            with pytest.raises(ProtocolError, match="debug"):
                cli.sleep(0.01)


# -- worker crash and respawn -------------------------------------------------


def test_worker_kill_mid_request_is_retryable_not_a_hang(network):
    with RouterServer(
        network, workers=1, uds="", debug=True, request_timeout=30.0
    ) as srv:
        raw = RouterClient(srv.address, retry=RetryPolicy(max_attempts=1))
        victim = srv.worker_pids()[0]

        failure = {}

        def pinned():
            try:
                raw.sleep(5.0)
            except Exception as exc:  # noqa: BLE001 - inspected below
                failure["exc"] = exc

        thread = threading.Thread(target=pinned, daemon=True)
        thread.start()
        # Wait until the sleep job is in the worker's hands: STATS counts
        # a job pending from the moment it is sent on the worker's pipe.
        deadline = time.monotonic() + 5.0
        claimed = False
        with RouterClient(srv.address) as probe:
            while time.monotonic() < deadline and not claimed:
                claimed = probe.stats()["pending"] == 1
                time.sleep(0.02)
        assert claimed, "sleep job never reached the worker"
        os.kill(victim, 9)
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "killed worker stranded the request"
        assert isinstance(failure.get("exc"), WorkerCrashError)

        # The handler must have respawned the slot; service continues.
        deadline = time.monotonic() + 10.0
        with RouterClient(srv.address) as probe:
            while time.monotonic() < deadline:
                stats = probe.stats()
                if stats["respawns"] >= 1 and all(
                    w["alive"] for w in stats["workers"]
                ):
                    break
                time.sleep(0.05)
            stats = probe.stats()
            assert stats["respawns"] >= 1
            assert all(w["alive"] for w in stats["workers"])
            assert stats["workers"][0]["pid"] != victim
            assert probe.route(1, 2) is not None
        raw.close()


def test_default_retry_policy_rides_through_a_crash(network):
    with RouterServer(
        network, workers=1, uds="", debug=True, request_timeout=30.0
    ) as srv:
        victim = srv.worker_pids()[0]
        retrying = RouterClient(
            srv.address, retry=RetryPolicy(max_attempts=3, base_delay=0.2)
        )
        local = LiangShenRouter(network)

        def assassin():
            time.sleep(0.5)
            try:
                os.kill(victim, 9)
            except ProcessLookupError:
                pass

        threading.Thread(target=assassin, daemon=True).start()
        with retrying:
            # ``sleep()`` itself is not retried (it is a raw debug call),
            # so drive the retry loop explicitly: the first attempt dies
            # with the worker, the retry lands on the respawned slot.
            result = retrying._call_retrying(Op.SLEEP, 1.5)
            assert result["slept"] == 1.5
            assert retrying.route(1, 2) == local.route(1, 2).path


def test_request_timeout_fails_the_job_and_replaces_its_worker(network):
    """A job that overruns ``request_timeout`` fails with an error naming
    the timeout, and the next request gets its own answer, never the
    overrunning job's late reply."""
    with RouterServer(
        network, workers=1, uds="", debug=True, request_timeout=0.5
    ) as srv:
        with RouterClient(
            srv.address, retry=RetryPolicy(max_attempts=1)
        ) as cli:
            with pytest.raises(RemoteRouterError, match="timed out after 0.5s"):
                cli.sleep(2.0)
            expected = LiangShenRouter(network).route(1, 7).path
            got = cli.route(1, 7)
            assert got == expected
            assert got.hops == expected.hops


# -- TCP transport ------------------------------------------------------------


def test_tcp_server_parity(network, local_router):
    with RouterServer(network, workers=1, host="127.0.0.1", port=0) as srv:
        host, port = srv.address
        assert port > 0
        with RouterClient((host, port)) as cli:
            assert cli.route(1, 2) == local_router.route(1, 2).path
            assert (
                _batch_all_pairs(cli, network)
                == local_router.route_all_pairs().paths
            )


# -- shutdown and cleanup -----------------------------------------------------


def test_shutdown_frame_unlinks_everything(network):
    srv = RouterServer(network, workers=1, uds="").start()
    segment = srv.segment_name
    uds_path = srv.address
    with RouterClient(srv.address) as cli:
        assert cli.shutdown()["closing"] is True
    assert srv.join(timeout=10.0)
    srv.close()  # blocks until the SHUTDOWN-triggered close completes
    assert segment not in leaked_segments()
    assert not os.path.exists(uds_path)
    with pytest.raises(RemoteRouterError):
        RouterClient(uds_path).route(1, 2)


def test_close_is_idempotent_and_unlinks(network):
    srv = RouterServer(network, workers=1, uds="").start()
    segment = srv.segment_name
    srv.close()
    srv.close()
    assert segment not in leaked_segments()
