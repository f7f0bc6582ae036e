"""The persistent router server: warm workers over one shared segment.

:class:`RouterServer` publishes ``G_all`` exactly once into a
:class:`~repro.shortestpath.shared.SharedCSR` segment, then forks a pool
of worker processes that *attach* (header parse + small metadata
unpickle — no graph pickling, see docs/serving.md) and stay warm across
requests, each holding a per-source :class:`~repro.core.forest.LazyForest`
cache that is dropped whenever the segment's seqlock epoch moves.  A
worker's tree searches only until the requested target's sink settles,
and a later request on the same source in the same epoch resumes it.

Request flow::

    client ──frame──▶ listener thread ──▶ per-connection handler thread
        ──checks out an idle worker, sends (op, payload) on its pipe──▶
        worker process (computes under read_stable) ──(ok, value)──▶
        handler returns the worker to the idle queue, replies OK/ERR

``PATCH`` never touches the workers: the server process owns a
:class:`~repro.shortestpath.delta.DeltaOverlay` bound to the *shared*
weights array, so fault events write through to the segment inside a
``SharedCSR.patch()`` seqlock bracket; workers notice the epoch bump and
invalidate their forest caches on the next request.

Replica gossip: a server given *peers* (the other replicas of its shard
in a :class:`~repro.cluster.ShardManager` tier) floods every accepted
``PATCH`` to them over the same wire protocol, tagged with an
``(origin, seq)`` envelope.  Peers deduplicate on the envelope — a
re-delivered patch is acknowledged as ``duplicate`` without touching the
overlay — so flooding converges for any replica count without loops and
a fault accepted at *any* replica reaches all of them without a rebuild.

Crash handling: each worker has one duplex pipe to the server, and only
the handler thread that checked the worker out writes to it.  A worker
that dies mid-request leaves that handler reading end of file, so
exactly its job fails with :class:`~repro.exceptions.WorkerCrashError`
— a *transient* error the client's RetryPolicy will retry — and the
handler forks a fresh worker into the slot.  A worker that died while
idle is replaced at checkout, before the job is sent, so clients never
see it.  Nothing respawns once ``close()`` has begun.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import secrets
import socket
import tempfile
import threading
import time
import weakref
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Any, Hashable

from repro.core.auxiliary import build_all_pairs_graph
from repro.exceptions import (
    ProtocolError,
    RemoteRouterError,
    SemilightError,
    WorkerCrashError,
)
from repro.faults.resilience import RetryPolicy
from repro.server import protocol
from repro.server.protocol import Op
from repro.shortestpath.delta import DeltaOverlay
from repro.shortestpath.shared import (
    attach_all_pairs_graph,
    share_all_pairs_graph,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["RouterServer"]

NodeId = Hashable

#: DeltaOverlay events a PATCH frame may invoke, by name.
PATCH_EVENTS = frozenset(
    {
        "fail_channel",
        "recover_channel",
        "fail_link",
        "recover_link",
        "fail_converter",
        "recover_converter",
    }
)


def _worker_main(segment: str, conn, inherited) -> None:
    """Worker process body: attach once, answer jobs on *conn* until the
    poison pill or end of file.

    Every computation runs under ``SharedCSR.read_stable`` so a PATCH
    racing the tree run forces a retry instead of returning answers from
    a half-written weights array; the forest cache is keyed to the even
    epoch the last stable read observed and cleared whenever it moves.
    A route request on a new source searches its tree only until the
    target settles; later requests on that source resume the same tree,
    so within one epoch each source's search runs at most once.

    *inherited* is what this forked child copied from every live server
    in the parent process: listeners, connections, segment handles and
    the server ends of worker pipes, its own included.  Closing them at
    once leaves the worker only its own segment, and a dead server gives
    its clients and its workers end of file.
    """
    import signal

    # Terminal Ctrl-C delivers SIGINT to the whole process group; the
    # parent's graceful-shutdown path reaps workers via poison pills, so
    # workers must not race it by dying on the signal themselves.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for handle in inherited:
        handle.close()
    aux = attach_all_pairs_graph(segment)
    shared = aux.shared_csr
    state: dict[str, Any] = {"epoch": shared.epoch, "forests": {}}

    def refresh() -> None:
        epoch = shared.epoch
        if epoch != state["epoch"]:
            state["forests"].clear()
            state["epoch"] = epoch

    def route_one(source: NodeId, target: NodeId):
        cached = state["forests"].get(source)
        if cached is None:
            # Resolved on the module at call time, so a rebound
            # ``forest.run_forest`` (a tracing wrapper) is honoured.
            from repro.core import forest

            cached = state["forests"][source] = forest.run_forest(
                aux, source, target
            )
        return protocol.encode_path(cached.path_to(target))

    def execute(op: int, payload: Any):
        if op == Op.ROUTE:
            source, target = payload

            def compute():
                refresh()
                return route_one(source, target)

            value, epoch = shared.read_stable(compute)
            return {"path": value, "epoch": epoch}
        if op == Op.ROUTE_BATCH:

            def compute():
                refresh()
                return [route_one(s, t) for s, t in payload]

            value, epoch = shared.read_stable(compute)
            return {"paths": value, "epoch": epoch}
        if op == Op.SLEEP:
            time.sleep(float(payload))
            return {"slept": float(payload)}
        raise RemoteRouterError(f"worker cannot execute opcode {op:#04x}")

    while True:
        try:
            job = conn.recv()
        except EOFError:
            break  # the server is gone
        if job is None:
            break
        op, payload = job
        try:
            reply = (True, execute(op, payload))
        except Exception as exc:  # noqa: BLE001 - serialized back to the client
            reply = (False, (type(exc).__name__, str(exc)))
        try:
            conn.send(reply)
        except OSError:
            break  # the server is gone
    shared.close()


class RouterServer:
    """A TCP/UDS router server over one shared ``G_all`` segment.

    Parameters
    ----------
    network:
        The network to serve; ``G_all`` is built and published once.
    workers:
        Warm worker processes (>= 1).
    host / port:
        TCP bind address; ``port=0`` picks an ephemeral port.  Mutually
        exclusive with *uds*.
    uds:
        Unix-domain socket path; generated under a temp dir when ``""``.
    debug:
        Enables the ``SLEEP`` opcode (tests pin a worker to kill it).
    request_timeout:
        Seconds a request may wait for an idle worker and then for its
        reply before it fails.  A worker that overruns is replaced, so
        its late reply cannot answer the next job on its pipe.
    peers:
        Addresses of the other replicas of this server's shard; every
        accepted ``PATCH`` is flooded to them (see the module docstring).
        Usually wired after ``start()`` via :meth:`add_peer` because
        ephemeral addresses are only known then.
    drain_timeout:
        Seconds ``close()`` waits for in-flight requests to finish (and
        their replies to flush) before tearing the pool down; a worker
        still busy then is terminated.
    """

    #: Every started, not yet closed server in this process.  A forked
    #: worker inherits the sockets, segments and worker pipes of all of
    #: them (a ``ShardManager`` runs every replica in one process).
    _live: "weakref.WeakSet[RouterServer]" = weakref.WeakSet()
    _live_lock = threading.Lock()

    def __init__(
        self,
        network: "WDMNetwork",
        *,
        workers: int = 2,
        host: str | None = None,
        port: int = 0,
        uds: str | None = None,
        debug: bool = False,
        request_timeout: float = 120.0,
        peers: "list | None" = None,
        drain_timeout: float = 2.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if uds is not None and host is not None:
            raise ValueError("pass either a TCP host or a UDS path, not both")
        self._network = network
        self._debug = debug
        self._request_timeout = request_timeout
        self._drain_timeout = drain_timeout
        self._num_workers = workers
        self._uds = uds
        self._host = host if host is not None else "127.0.0.1"
        self._port = port
        self._started = False
        self._closing = threading.Event()
        self._closed = threading.Event()
        self._close_guard = threading.Lock()
        self._close_started = False
        self._stop_requested = False  # set by the signal handler
        self._lock = threading.Lock()
        self._pending = 0  # jobs handed to a worker and not yet answered
        self._active = 0  # dispatches between frame read and reply sent
        self._acceptor: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._respawns = 0
        self._requests = 0
        #: Gossip identity and flood bookkeeping (replica tiers).
        self.gossip_id = f"g{secrets.token_hex(6)}"
        self._gossip_seq = itertools.count(1)
        self._gossip_seen: dict[str, set[int]] = {}
        self._gossip_lock = threading.Lock()
        self._peers: list[Any] = []
        self._peer_clients: dict[Any, Any] = {}
        self._gossip_forwarded = 0
        self._gossip_failed = 0
        self._gossip_duplicates = 0
        for peer in peers or ():
            self.add_peer(peer)

        base_aux = build_all_pairs_graph(network)
        self._shared = share_all_pairs_graph(base_aux)
        # Rebind the aux graph over the segment's own arrays so the
        # DeltaOverlay's weight writes land in shared memory, where every
        # attached worker sees them.
        self._aux = attach_all_pairs_graph(self._shared)
        self._delta = DeltaOverlay(self._aux)

        ctx_name = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self._ctx = multiprocessing.get_context(ctx_name)
        # Slot i holds worker i and the server's end of its pipe; the
        # idle queue holds the slots no handler has checked out.
        self._workers: list[Any] = [None] * workers
        self._conns: list[Any] = [None] * workers
        self._idle: SimpleQueue[int | None] = SimpleQueue()
        self._listener: socket.socket | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "RouterServer":
        """Bind, spawn the pool, and begin serving; returns ``self``."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self._uds is not None:
            if self._uds == "":
                self._uds = os.path.join(
                    tempfile.mkdtemp(prefix="repro_serve_"), "router.sock"
                )
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self._uds)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        with RouterServer._live_lock:
            RouterServer._live.add(self)
        for index in range(self._num_workers):
            self._spawn_worker(index)
            self._idle.put(index)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="router-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    @property
    def address(self):
        """The bound address: a UDS path string or a ``(host, port)`` pair."""
        if self._uds is not None:
            return self._uds
        return (self._host, self._port)

    @property
    def segment_name(self) -> str:
        """The shared segment's name (``/dev/shm/<name>`` on Linux)."""
        return self._shared.name

    def worker_pids(self) -> list[int]:
        """Live worker PIDs (test hook for the kill/respawn suite)."""
        return [p.pid for p in self._workers if p is not None]

    def join(self, timeout: float | None = None) -> bool:
        """Block until the server closes (a SHUTDOWN frame, ``close()``, or
        a signal :meth:`install_signal_handlers` handles).

        Polls rather than parking in a single untimed wait: the kernel
        may deliver a process-directed SIGTERM to *any* thread, and a
        main thread stuck in an untimed ``sem_wait`` never reaches a
        bytecode boundary to run the Python-level handler.  Waking every
        200 ms guarantees the handler fires, and the wake-up that finds
        its shutdown request runs ``close()``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._closing.is_set():
            if self._stop_requested:
                self.close()
                break
            wait = 0.2
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    return False
            self._closing.wait(wait)
        return True

    def add_peer(self, address) -> None:
        """Register a replica peer to flood accepted PATCH frames to.

        *address* is a UDS path string or ``(host, port)`` pair — exactly
        what ``RouterServer.address`` returns.  Safe to call after
        ``start()`` (a shard manager wires the full replica mesh once
        every replica has bound its ephemeral address).
        """
        key = address if isinstance(address, str) else tuple(address)
        with self._gossip_lock:
            if key not in self._peers:
                self._peers.append(key)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the graceful ``close()`` path.

        Must be called from the main thread (CPython delivers signals
        there), and before :meth:`start`, so no signal finds the socket
        bound and the workers forked while the default action would
        still kill the process and orphan them.  The handler only records
        the request, so it is safe wherever it lands, even mid-``start()``
        or mid-``close()``; :meth:`join` sees it within 200 ms and runs
        ``close()``, which drains in-flight jobs, reaps the pool, and
        unlinks the shared segment, so a supervisor's TERM leaves no
        ``/dev/shm`` residue.
        """
        import signal

        def _handle(signum, frame):  # noqa: ARG001 - signal signature
            self._stop_requested = True

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def close(self) -> None:
        """Drain, stop serving, reap the pool, unlink the segment.

        Idempotent; a second caller (e.g. a ``with`` block racing a
        SHUTDOWN frame) blocks until the first finishes, so "close
        returned" always means "segment unlinked".  In-flight jobs get
        up to ``drain_timeout`` seconds to finish and flush their
        replies before the pool is torn down — a SIGTERM mid-request
        drains instead of stranding clients.  Nothing respawns once
        ``close()`` has begun.
        """
        with self._close_guard:
            first = not self._close_started
            self._close_started = True
        if not first:
            self._closed.wait(timeout=15.0)
            return
        # 1) Stop accepting new connections, but first adopt anything
        #    already sitting in the listen backlog — a client that
        #    connected (and possibly wrote a frame) before the signal
        #    landed would be RST by closing the listener, never having
        #    been accepted.  Adopted connections join the drain like any
        #    other.  The acceptor and the live connections keep running
        #    during the drain.
        if self._listener is not None:
            try:
                self._listener.settimeout(0)
                while True:
                    conn, _addr = self._listener.accept()
                    conn.settimeout(None)
                    with self._lock:
                        self._connections.add(conn)
                    threading.Thread(
                        target=self._serve_connection,
                        args=(conn,),
                        name="router-conn",
                        daemon=True,
                    ).start()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        # 2) Drain: wait for in-flight dispatches to finish.  Quiescence
        #    must hold for a short stable window — a frame already
        #    buffered on a connection when the signal landed may not
        #    have been *read* yet, so a single empty check would tear the
        #    socket down under its reply.
        deadline = time.monotonic() + max(0.0, self._drain_timeout)
        quiet_since: float | None = None
        while time.monotonic() < deadline:
            with self._lock:
                busy = self._active > 0
            now = time.monotonic()
            if busy:
                quiet_since = None
            elif quiet_since is None:
                quiet_since = now
            elif now - quiet_since >= 0.1:
                break
            time.sleep(0.01)
        # 3) Tear down.
        self._closing.set()
        with self._gossip_lock:
            peer_clients = list(self._peer_clients.values())
            self._peer_clients.clear()
        for peer_client in peer_clients:
            try:
                peer_client.close()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
        with self._lock:
            conns = list(self._connections)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        # Only the thread holding a worker writes to its pipe, so each
        # worker is checked out before it gets the pill; one still busy
        # at the drain deadline is terminated below.
        spawned = [proc for proc in self._workers if proc is not None]
        for _ in spawned:
            try:
                index = self._idle.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except Empty:
                break
            try:
                self._conns[index].send(None)
            except OSError:
                pass  # it died while idle
        self._idle.put(None)  # turns away every later checkout
        deadline = time.monotonic() + 5.0
        for proc in spawned:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is not None:
                conn.close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
        self._shared.unlink()
        with RouterServer._live_lock:
            RouterServer._live.discard(self)
        if self._uds is not None and os.path.exists(self._uds):
            try:
                os.unlink(self._uds)
            except OSError:
                pass
        self._closed.set()

    def __enter__(self) -> "RouterServer":
        return self.start() if not self._started else self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- worker pool ----------------------------------------------------------

    def _spawn_worker(self, index: int) -> None:
        """Fork a worker with a fresh pipe into slot *index*.

        Pipe, fork and the close of the child's end here all happen under
        ``_live_lock``: any fork in between would copy the child's end,
        and this worker's death would then give no end of file.
        """
        with RouterServer._live_lock:
            inherited: list[Any] = []
            if self._ctx.get_start_method() == "fork":
                for server in RouterServer._live:
                    with server._lock:
                        inherited.append(server._listener)
                        inherited.extend(server._connections)
                    inherited.append(server._shared)
                    inherited.extend(c for c in server._conns if c is not None)
            conn, child = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._shared.name, child, inherited + [conn]),
                daemon=True,
                name=f"router-worker-{index}",
            )
            proc.start()
            child.close()
            self._workers[index], self._conns[index] = proc, conn

    def _replace(self, index: int) -> bool:
        """Retire slot *index*'s worker and fork a fresh one into it.

        Returns False, leaving the slot dead, once ``close()`` has begun.
        """
        proc = self._workers[index]
        proc.terminate()
        proc.join(timeout=5.0)
        self._conns[index].close()
        with self._close_guard:
            if self._close_started:
                return False
            self._respawns += 1
            self._spawn_worker(index)
        return True

    def _checkout(self, deadline: float) -> int:
        """Take an idle worker's slot, replacing a worker that died idle."""
        try:
            index = self._idle.get(
                timeout=max(0.0, deadline - time.monotonic())
            )
        except Empty:
            raise RemoteRouterError(
                f"request timed out after {self._request_timeout}s"
            ) from None
        if index is None or self._closing.is_set():
            self._idle.put(index)
            raise RemoteRouterError("server shut down")
        if not self._workers[index].is_alive() and not self._replace(index):
            self._idle.put(index)
            raise RemoteRouterError("server shut down")
        return index

    def _submit(self, op: int, payload: Any):
        """Run one job on an idle worker and wait for its reply."""
        deadline = time.monotonic() + self._request_timeout
        index = self._checkout(deadline)
        conn = self._conns[index]
        with self._lock:
            self._pending += 1
        try:
            conn.send((op, payload))
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                # Its late reply would answer the next job on this pipe.
                self._replace(index)
                raise RemoteRouterError(
                    f"request timed out after {self._request_timeout}s"
                )
            ok, value = conn.recv()
        except (EOFError, OSError):
            pid = self._workers[index].pid
            self._replace(index)
            raise WorkerCrashError(
                f"worker {index} (pid {pid}) died mid-request"
            ) from None
        finally:
            with self._lock:
                self._pending -= 1
            self._idle.put(index)
        if ok:
            return value
        name, message = value
        raise RemoteRouterError(f"{name}: {message}")

    # -- request dispatch -----------------------------------------------------

    def _apply_patch(self, payload) -> dict[str, Any]:
        """Apply a fault batch write-through under the seqlock bracket.

        Two payload shapes:

        * the legacy list form ``[("fail_link", (u, v)), ...]`` — a
          locally-originated patch; the server stamps it with its own
          gossip identity and floods it to every registered peer;
        * the envelope ``{"ops": [...], "origin": str, "seq": int}`` —
          a gossiped patch from a peer; applied once (``(origin, seq)``
          dedup) and re-flooded so the patch reaches the whole replica
          mesh even when peers are not fully connected.

        A duplicate envelope is acknowledged with ``{"duplicate": True}``
        and does **not** touch the overlay — flooding may deliver the
        same patch along several paths and the delta epoch must count
        each fault event exactly once per replica.
        """
        origin = self.gossip_id
        seq: int | None = None
        if isinstance(payload, dict):
            try:
                ops = payload["ops"]
                origin = payload["origin"]
                seq = payload["seq"]
            except (KeyError, TypeError) as exc:
                raise ProtocolError(
                    "PATCH envelope needs 'ops', 'origin', 'seq'"
                ) from exc
            if not isinstance(origin, str) or not isinstance(seq, int):
                raise ProtocolError("PATCH envelope origin/seq malformed")
        else:
            ops = payload
        if not isinstance(ops, (list, tuple)):
            raise ProtocolError("PATCH payload must be a list of (event, args)")
        for entry in ops:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or entry[0] not in PATCH_EVENTS
            ):
                raise ProtocolError(f"invalid PATCH op: {entry!r}")
        with self._gossip_lock:
            if seq is None:
                # Locally originated: stamp and pre-mark our own id as
                # seen so the flood cannot bounce back and re-apply.
                seq = next(self._gossip_seq)
                self._gossip_seen.setdefault(origin, set()).add(seq)
            else:
                seen = self._gossip_seen.setdefault(origin, set())
                if origin == self.gossip_id or seq in seen:
                    self._gossip_duplicates += 1
                    return {
                        "duplicate": True,
                        "origin": origin,
                        "seq": seq,
                        "epoch": self._shared.epoch,
                        "delta_epoch": self._delta.delta_epoch,
                    }
                seen.add(seq)
        changed = 0
        inexpressible: list[str] = []
        with self._lock:
            with self._shared.patch():
                for name, args in ops:
                    slots = getattr(self._delta, name)(*args)
                    if slots is None:
                        # Applied ops stay applied; the caller must treat
                        # the overlay as needing a rebuild (mirrors the
                        # in-process EpochRouterCache degrade path).
                        inexpressible.append(name)
                    else:
                        changed += len(slots)
        forwarded, failed = self._forward_patch(ops, origin, seq)
        return {
            "epoch": self._shared.epoch,
            "delta_epoch": self._delta.delta_epoch,
            "changed_slots": changed,
            "masked_edges": self._delta.masked_edges,
            "inexpressible": inexpressible,
            "origin": origin,
            "seq": seq,
            "forwarded": forwarded,
            "failed": failed,
        }

    def _forward_patch(self, ops, origin: str, seq: int) -> tuple[int, int]:
        """Flood an accepted patch to every peer (outside all locks).

        Runs synchronously in the handler thread *after* the local apply
        so "PATCH acknowledged" means "every reachable replica has it".
        Each peer's dedup makes re-flooding terminate: a peer that has
        already seen ``(origin, seq)`` acknowledges without forwarding.
        A dead peer costs one failed send (counted, never fatal) — the
        tier's fault model is that replicas crash and the survivors keep
        answering.
        """
        with self._gossip_lock:
            peers = list(self._peers)
        if not peers:
            return 0, 0
        from repro.server.client import RouterClient

        envelope = {"ops": [tuple(op) for op in ops], "origin": origin,
                    "seq": seq}
        forwarded = failed = 0
        for peer in peers:
            with self._gossip_lock:
                client = self._peer_clients.get(peer)
                if client is None and not self._closing.is_set():
                    client = RouterClient(
                        peer,
                        retry=RetryPolicy(max_attempts=1),
                        timeout=self._request_timeout,
                    )
                    self._peer_clients[peer] = client
            if client is None:
                failed += 1
                continue
            try:
                client.patch(list(envelope["ops"]), origin=origin, seq=seq)
                forwarded += 1
            except Exception:  # noqa: BLE001 - peer down is not our failure
                failed += 1
                with self._gossip_lock:
                    self._peer_clients.pop(peer, None)
                try:
                    client.close()
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    pass
        with self._gossip_lock:
            self._gossip_forwarded += forwarded
            self._gossip_failed += failed
        return forwarded, failed

    def _snapshot(self) -> dict[str, Any]:
        return {
            "segment": self._shared.name,
            "nodes": self._shared.num_nodes,
            "edges": self._shared.num_edges,
            "epoch": self._shared.epoch,
            "delta_epoch": self._delta.delta_epoch,
            "masked_edges": self._delta.masked_edges,
            "workers": self._num_workers,
        }

    def _stats(self) -> dict[str, Any]:
        with self._lock:
            pending = self._pending
        with self._gossip_lock:
            gossip = {
                "id": self.gossip_id,
                "peers": len(self._peers),
                "forwarded": self._gossip_forwarded,
                "failed": self._gossip_failed,
                "duplicates": self._gossip_duplicates,
            }
        return {
            "workers": [
                {"index": i, "pid": p.pid, "alive": p.is_alive()}
                for i, p in enumerate(self._workers)
            ],
            "respawns": self._respawns,
            "requests": self._requests,
            "pending": pending,
            "epoch": self._shared.epoch,
            "delta_epoch": self._delta.delta_epoch,
            "gossip": gossip,
        }

    def _dispatch(self, op: Op, payload: Any):
        self._requests += 1
        if op in (Op.ROUTE, Op.ROUTE_BATCH):
            return self._submit(op, payload)
        if op == Op.SLEEP:
            if not self._debug:
                raise ProtocolError("SLEEP requires a debug server")
            return self._submit(op, payload)
        if op == Op.PATCH:
            return self._apply_patch(payload)
        if op == Op.SNAPSHOT:
            return self._snapshot()
        if op == Op.STATS:
            return self._stats()
        if op == Op.SHUTDOWN:
            return {"closing": True}
        raise ProtocolError(f"server cannot handle opcode {int(op):#04x}")

    # -- socket plumbing ------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(None)
            with self._lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="router-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._closing.is_set():
                try:
                    frame = protocol.read_frame(conn)
                except ProtocolError as exc:
                    # The stream framing can no longer be trusted: answer
                    # once (best effort) and drop the connection.
                    try:
                        protocol.send_frame(
                            conn, Op.ERR, ("ProtocolError", str(exc))
                        )
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                if frame is None:
                    return
                op, payload = frame
                with self._lock:
                    self._active += 1
                try:
                    try:
                        reply = self._dispatch(op, payload)
                    except SemilightError as exc:
                        protocol.send_frame(
                            conn, Op.ERR, (type(exc).__name__, str(exc))
                        )
                        continue
                    except Exception as exc:  # noqa: BLE001 - never kill the server
                        protocol.send_frame(
                            conn, Op.ERR, (type(exc).__name__, str(exc))
                        )
                        continue
                    protocol.send_frame(conn, Op.OK, reply)
                finally:
                    with self._lock:
                        self._active -= 1
                if op == Op.SHUTDOWN:
                    threading.Thread(
                        target=self.close, name="router-shutdown", daemon=True
                    ).start()
                    return
        except OSError:
            pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass
