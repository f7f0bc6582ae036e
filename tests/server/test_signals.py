"""Graceful SIGTERM/SIGINT shutdown of a serving process.

The SHUTDOWN-frame path was already clean; these tests cover the
supervisor path: a ``python -m repro serve`` process killed with TERM
(or INT) must drain, unlink its shared segment and socket, and exit 0 —
``leaked_segments()`` is the ground truth, scanning ``/dev/shm`` after
the process is gone.  One test serves over TCP on an ephemeral port,
the CLI's TCP bind path.

Each spawned server runs in its own session, and cleanup kills that
whole process group: a failing test must not leave a worker (and the
segment it maps) behind for the next leak-audited test.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.routing import LiangShenRouter
from repro.io import network_to_json
from repro.server import RouterClient, RouterServer
from repro.server.protocol import Op
from repro.shortestpath.shared import SEGMENT_PREFIX, leaked_segments
from repro.topology.reference import paper_figure1_network

_SRC = str(Path(repro.__file__).resolve().parent.parent)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM"), reason="POSIX signals required"
)


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(network_to_json(paper_figure1_network()))
    return path


def _kill_group(process):
    """SIGKILL everything left in the server's session (a no-op after a
    clean exit, which reaps the workers first)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30.0)


def _spawn_server(network_file, uds_path, workers=1):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(network_file),
            "--uds", str(uds_path), "--workers", str(workers),
        ],
        env={**os.environ, "PYTHONPATH": _SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server died during startup:\n{process.stdout.read()}"
            )
        if os.path.exists(uds_path):
            try:
                with RouterClient(str(uds_path)) as probe:
                    probe.snapshot()
                return process
            except Exception:
                pass
        time.sleep(0.05)
    _kill_group(process)
    raise AssertionError("server did not come up in 30s")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_shutdown_is_clean(network_file, tmp_path, signum):
    before = set(leaked_segments())
    uds_path = tmp_path / "router.sock"
    process = _spawn_server(network_file, uds_path)
    try:
        process.send_signal(signum)
        code = process.wait(timeout=30.0)
    finally:
        _kill_group(process)
    output = process.stdout.read()
    assert code == 0, f"exit {code}:\n{output}"
    assert set(leaked_segments()) - before == set(), output
    assert not os.path.exists(uds_path)


def test_sigterm_drains_inflight_requests(network_file, tmp_path):
    """A request in flight when TERM lands still gets its answer."""
    before = set(leaked_segments())
    uds_path = tmp_path / "router.sock"
    process = _spawn_server(network_file, uds_path)
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30.0)
        sock.connect(str(uds_path))
        from repro.server import protocol

        protocol.send_frame(sock, Op.ROUTE, (1, 7))
        process.send_signal(signal.SIGTERM)
        # The drain window must flush the reply before teardown.
        reply = protocol.read_frame(sock)
        assert reply is not None
        op, payload = reply
        assert op == Op.OK
        assert payload["path"] is not None
        sock.close()
        code = process.wait(timeout=30.0)
    finally:
        _kill_group(process)
    assert code == 0
    assert set(leaked_segments()) - before == set()


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie (an orphan is reaped by
    whichever process adopts it, perhaps never)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigkilled_server_leaves_no_workers(network_file, tmp_path):
    """A server killed outright cannot drain, but its workers read end of
    file on their pipes and exit; once the last is gone, the resource
    tracker unlinks the segment the server left behind."""
    uds_path = tmp_path / "router.sock"
    process = _spawn_server(network_file, uds_path, workers=2)
    try:
        with RouterClient(str(uds_path)) as client:
            workers = [worker["pid"] for worker in client.stats()["workers"]]
            segment = client.snapshot()["segment"]
        assert len(workers) == 2
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and (
            any(_running(pid) for pid in workers)
            or segment in leaked_segments()
        ):
            time.sleep(0.05)
        assert not any(_running(pid) for pid in workers)
        assert segment not in leaked_segments()
    finally:
        _kill_group(process)
        process.stdout.close()


def test_serve_over_tcp_reports_its_address(network_file):
    """``serve --port 0`` binds TCP, prints the ephemeral address it got,
    answers there, and still shuts down clean on TERM."""
    before = set(leaked_segments())
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(network_file),
            "--host", "127.0.0.1", "--port", "0", "--workers", "1",
        ],
        env={**os.environ, "PYTHONPATH": _SRC, "PYTHONUNBUFFERED": "1"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    lines: queue.Queue[str] = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(line) for line in process.stdout],
        daemon=True,
    ).start()
    try:
        deadline = time.monotonic() + 30.0
        line = ""
        while "listening on" not in line:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        host, port = line.split()[-1].rsplit(":", 1)
        assert host == "127.0.0.1" and int(port) > 0
        expected = LiangShenRouter(paper_figure1_network()).route(1, 7).path
        with RouterClient((host, int(port))) as client:
            assert client.route(1, 7) == expected
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30.0)
    finally:
        _kill_group(process)
    assert code == 0
    assert set(leaked_segments()) - before == set()


def test_serve_handles_signals_before_it_binds(network_file, tmp_path, monkeypatch):
    """``repro serve`` has its TERM/INT handling in place before
    ``start()`` binds the socket and forks the workers, so no signal can
    kill it by the default action while they exist."""
    from repro.cli import main

    seen = []
    start = RouterServer.start

    def recording_start(self):
        seen.append(signal.getsignal(signal.SIGTERM))
        return start(self)

    monkeypatch.setattr(RouterServer, "start", recording_start)
    monkeypatch.setattr(RouterServer, "join", lambda self, timeout=None: True)
    saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
    before = set(leaked_segments())
    try:
        code = main(
            [
                "serve", str(network_file),
                "--uds", str(tmp_path / "router.sock"), "--workers", "1",
            ]
        )
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)
    assert code == 0
    assert len(seen) == 1 and seen[0] is not signal.SIG_DFL
    assert set(leaked_segments()) - before == set()


def _held_fds(pid: int) -> set[str]:
    """What each of *pid*'s open fds points at (``socket:[inode]`` ...)."""
    fd_dir = f"/proc/{pid}/fd"
    held = set()
    for fd in os.listdir(fd_dir):
        try:
            held.add(os.readlink(os.path.join(fd_dir, fd)))
        except FileNotFoundError:
            pass  # closed since the listing
    return held


def _socket_name(handle) -> str:
    """How a socket or pipe end *handle* reads in ``/proc/<pid>/fd``."""
    return f"socket:[{os.fstat(handle.fileno()).st_ino}]"


def _listener_inode(server: RouterServer) -> str:
    return _socket_name(server._listener)


def _mapped_segments(pid: int) -> list[str]:
    """The ``/dev/shm/repro_*`` files *pid* maps, one entry per mapping."""
    with open(f"/proc/{pid}/maps") as maps:
        return sorted(
            line.split(None, 5)[5].strip()
            for line in maps
            if "/dev/shm/" + SEGMENT_PREFIX in line
        )


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_workers_do_not_hold_the_listener(paper_net):
    """Forked workers close their copy of the listening socket, so a dead
    server process leaves no one accepting on it: clients see EOF or a
    refused connection, never a silent hang."""
    with RouterServer(paper_net, workers=1, uds="") as server:
        with RouterClient(server.address) as client:
            client.route(1, 7)  # the worker has served, so it is running
        listener = _listener_inode(server)
        for pid in server.worker_pids():
            assert listener not in _held_fds(pid), pid


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_shard_workers_hold_no_listener(paper_net):
    """A ``ShardManager`` runs every replica's server in one process, so
    each later worker is forked holding the earlier servers' listeners,
    segments and worker pipes: it must close all of them, not just its
    own server's, and map only its own server's segment."""
    from repro.cluster.shards import ShardManager

    with ShardManager(paper_net, shards=2, replicas=2, workers=2) as manager:
        servers = manager.all_servers()
        listeners = {_listener_inode(server) for server in servers}
        assert len(listeners) == 4
        pipe_ends = {
            _socket_name(conn) for server in servers for conn in server._conns
        }
        assert len(pipe_ends) == 8

        def holdings(pid: int):
            # Distinct files: an open segment is two fds, since the mmap
            # keeps a duplicate of the one it maps.
            held = _held_fds(pid)
            segments = sorted(
                fd for fd in held if fd.startswith("/dev/shm/" + SEGMENT_PREFIX)
            )
            return (
                listeners.isdisjoint(held),
                pipe_ends.isdisjoint(held),
                segments,
                _mapped_segments(pid),
            )

        for server in servers:
            own = f"/dev/shm/{server.segment_name}"
            expected = (True, True, [own], [own])
            for pid in server.worker_pids():
                # A worker closes what it inherited, then attaches; wait
                # for its start-up to finish.
                deadline = time.monotonic() + 10.0
                while (
                    holdings(pid) != expected and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert holdings(pid) == expected, pid


def test_in_process_close_drains_claimed_jobs(paper_net):
    """``close()`` waits for a job a worker holds instead of stranding it.

    Uses a debug server's SLEEP job (pins a worker) to guarantee a job
    is in flight when close() begins.
    """
    server = RouterServer(
        paper_net, workers=1, uds="", debug=True, drain_timeout=5.0
    ).start()
    client = RouterClient(server.address)
    result: dict = {}

    import threading

    def sleeper():
        result["sleep"] = client.sleep(0.5)

    thread = threading.Thread(target=sleeper, daemon=True)
    thread.start()
    # Wait until the job is in the worker's hands.
    deadline = time.monotonic() + 10.0
    with RouterClient(server.address) as probe:
        while time.monotonic() < deadline:
            if probe.stats()["pending"] == 1:
                break
            time.sleep(0.01)
    server.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert result["sleep"]["slept"] == 0.5
    client.close()
    assert server.segment_name not in leaked_segments()
