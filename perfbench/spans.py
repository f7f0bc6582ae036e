"""Spans recorded around calls into the program's public layers.

Tracing lives entirely in the benchmark: each ``install_*`` function
replaces public callables (module functions, class methods) with timing
wrappers before the workload starts, and nothing under ``src`` changes.
A span is ``(id, name, start_ns, end_ns, parent_id, thread, request,
extra)``; timestamps come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC``,
shared by every process on the machine), so spans from the load
generator, the tier and its workers share one time axis.  Spans stay in
memory and each process writes its own file when it ends.

Worker processes are forked from the tier process after the tier's
wrappers are installed, so they inherit them; an at-fork hook gives each
child an empty span list, and the worker's clean exit, which ends in
``SharedCSR.close()``, writes its file.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
import types

FIELDS = ["id", "name", "start_ns", "end_ns", "parent", "thread", "request", "extra"]


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, role: str) -> None:
        self.enabled = True
        self.reset(role)

    def reset(self, role: str) -> None:
        """Start over with no spans (also in a freshly forked child)."""
        self.role = role
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_request(self, request: int | None) -> None:
        self._local.request = request

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, extra=None) -> None:
        """Add a finished span whose interval the caller measured."""
        stack = self._stack()
        self.spans.append(
            (
                next(self._ids),
                name,
                start,
                end,
                stack[-1] if stack else None,
                threading.get_ident(),
                getattr(self._local, "request", None),
                extra,
            )
        )

    def wrap(self, name: str, fn, extra=None):
        """*fn* timed as span *name*; ``extra(result, args)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            self.spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    threading.get_ident(),
                    getattr(self._local, "request", None),
                    extra(result, args) if extra is not None else None,
                )
            )
            return result

        return traced

    def replace(self, owner, attribute: str, name: str, extra=None) -> None:
        """Swap ``owner.attribute`` for itself timed as span *name*."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), extra))

    def flush(self, directory: str) -> str:
        """Write this process's spans to ``<directory>/spans-<role>-<pid>.json``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{self.role}-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "role": self.role,
                    "fields": FIELDS,
                    "spans": self.spans,
                },
                handle,
            )
        return path


def load_spans(directory: str) -> list[dict]:
    """Every span file in *directory*, as ``{"pid", "role", "spans"}``."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                out.append(json.load(handle))
    return out


def _timed_pickle(tracer: Tracer, name: str):
    """A stand-in for ``pickle`` inside ``repro.server.protocol`` whose
    ``loads`` is a span: ``read_frame`` unpickles the payload through it."""
    return types.SimpleNamespace(
        dumps=pickle.dumps,
        loads=tracer.wrap(name, pickle.loads),
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    )


def _kernel_extra(result, _args):
    return [result.settled, result.relaxations]


def _wrap_resolver(tracer: Tracer, resolve):
    """``resolve_kernel`` whose returned kernel callable is a span."""

    @functools.wraps(resolve)
    def traced_resolve(heap):
        return tracer.wrap("kernel.search", resolve(heap), _kernel_extra)

    return traced_resolve


# -- load generator (served workloads) -----------------------------------------


def install_loadgen(tracer: Tracer) -> None:
    """Spans for the client side of a served request and for patches."""
    from repro.cluster.frontend import FrontendRouter
    from repro.server import protocol
    from repro.server.client import RouterClient

    tracer.replace(FrontendRouter, "route_with_epoch", "frontend.route")
    tracer.replace(FrontendRouter, "patch", "frontend.patch")
    tracer.replace(RouterClient, "route_with_epoch", "client.route")
    tracer.replace(protocol, "encode_frame", "client.encode")
    tracer.replace(protocol, "decode_path", "client.decode_path")
    protocol.pickle = _timed_pickle(tracer, "client.unpickle")


# -- tier process and its forked workers ----------------------------------------


def _slots_extra(result, _args):
    return -1 if result is None else len(result)


class _CountedCall:
    """A zero-argument computation that counts its invocations."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.fn()


def install_tier(tracer: Tracer, directory: str) -> None:
    """Spans for the tier's connection threads, patches, and workers.

    Must run before ``ShardManager.start()`` so the forked workers
    inherit the worker-side wrappers.
    """
    from repro.core import forest
    from repro.server import protocol
    from repro.shortestpath.delta import DeltaOverlay
    from repro.shortestpath.shared import SharedCSR

    local = threading.local()
    read_frame = protocol.read_frame
    send_frame = protocol.send_frame

    def traced_read_frame(sock):
        frame = read_frame(sock)
        # Only request frames open a residence; a gossip client running
        # on the same handler thread reads replies (opcodes >= 0x40).
        if tracer.enabled and frame is not None and int(frame[0]) < 0x40:
            local.request = (int(frame[0]), time.monotonic_ns())
        return frame

    def traced_send_frame(sock, op, payload=None):
        start = time.monotonic_ns()
        send_frame(sock, op, payload)
        end = time.monotonic_ns()
        request = getattr(local, "request", None)
        if request is not None and int(op) >= 0x40:
            local.request = None
            tracer.record("server.reply", start, end, request[0])
            tracer.record("server.residence", request[1], end, request[0])

    protocol.read_frame = traced_read_frame
    protocol.send_frame = traced_send_frame

    for event in (
        "fail_channel",
        "recover_channel",
        "fail_link",
        "recover_link",
        "fail_converter",
        "recover_converter",
    ):
        tracer.replace(DeltaOverlay, event, "patch.apply", _slots_extra)

    # The span's extra is the number of torn reads: invocations of the
    # computation beyond the first.
    traced_read = tracer.wrap(
        "worker.compute",
        SharedCSR.read_stable,
        lambda _value, args: args[1].calls - 1,
    )

    def traced_read_stable(self, fn, *args, **kwargs):
        return traced_read(self, _CountedCall(fn), *args, **kwargs)

    SharedCSR.read_stable = traced_read_stable

    path_to = forest.LazyForest.path_to
    traced_decode = tracer.wrap("forest.decode", path_to)

    def traced_path_to(self, target):
        if target in self._paths:
            return path_to(self, target)
        return traced_decode(self, target)

    forest.LazyForest.path_to = traced_path_to
    tracer.replace(forest, "run_forest", "forest.build")
    forest.resolve_kernel = _wrap_resolver(tracer, forest.resolve_kernel)

    close = SharedCSR.close

    def close_and_flush(self):
        close(self)
        if tracer.role == "worker":
            tracer.flush(directory)

    SharedCSR.close = close_and_flush
    os.register_at_fork(after_in_child=lambda: tracer.reset("worker"))


# -- provisioning -----------------------------------------------------------------


def install_provision(tracer: Tracer) -> None:
    """Spans for one admission's layers: wdm, core.auxiliary, core.routing,
    and the kernel the router resolves."""
    from repro.core import routing
    from repro.wdm.provisioning import SemilightpathProvisioner
    from repro.wdm.state import WavelengthState

    tracer.replace(SemilightpathProvisioner, "residual_network", "wdm.residual")
    tracer.replace(
        routing,
        "build_layered_graph",
        "core.build_layered",
        lambda graph, _args: graph.graph.num_edges,
    )
    routing.resolve_kernel = _wrap_resolver(tracer, routing.resolve_kernel)
    tracer.replace(routing.LiangShenRouter, "__init__", "core.router_init")
    tracer.replace(routing.LiangShenRouter, "route", "core.route")
    tracer.replace(WavelengthState, "reserve_path", "wdm.reserve")
    tracer.replace(WavelengthState, "release_path", "wdm.release")
