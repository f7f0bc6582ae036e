"""Per-layer metrics from a traced run's spans.

Layers are named by module.  Times are means per call in microseconds
unless the name says otherwise; a self time is a span's duration minus
the time its direct child spans cover.  Served requests cannot be joined
across processes (the wire carries no request id), so served stages are
per-stage distributions whose means are combined: the residual between
the client's mean round trip and the attributed stage means is reported
as ``served.unattributed_us``.

Every metric is emitted for every workload; a layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

import statistics

from provision import EXACT_PREFIX

#: ``(name, unit, better)`` of every per-layer metric, in report order.
METRICS = [
    ("client.rtt_us", "us", "lower"),
    ("cluster.frontend_self_us", "us", "lower"),
    ("cluster.shard_skew", "ratio", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("cluster.shed", "count", "lower"),
    ("client.encode_us", "us", "lower"),
    ("client.decode_us", "us", "lower"),
    ("client.wait_us", "us", "lower"),
    ("server.residence_us", "us", "lower"),
    ("server.queue_wait_us", "us", "lower"),
    ("server.reply_us", "us", "lower"),
    ("served.unattributed_us", "us", "lower"),
    ("worker.compute_us", "us", "lower"),
    ("worker.read_retries", "count", "lower"),
    ("forest.builds_per_kop", "1/kop", "lower"),
    ("forest.build_us", "us", "lower"),
    ("forest.decodes_per_kop", "1/kop", "lower"),
    ("forest.decode_us", "us", "lower"),
    ("forest.hit_ratio", "ratio", "higher"),
    ("patch.rtt_us", "us", "lower"),
    ("patch.apply_us", "us", "lower"),
    ("patch.slots", "count", "lower"),
    ("gossip.forwarded", "count", "higher"),
    ("gossip.duplicates", "count", "lower"),
    ("gossip.failed", "count", "lower"),
    ("wdm.residual_us", "us", "lower"),
    ("core.build_layered_us", "us", "lower"),
    ("core.layered_edges", "count", "lower"),
    ("core.router_init_us", "us", "lower"),
    ("core.route_self_us", "us", "lower"),
    ("kernel.search_us", "us", "lower"),
    ("kernel.settled", "count", "lower"),
    ("kernel.relaxations", "count", "lower"),
    ("wdm.reserve_us", "us", "lower"),
    ("wdm.release_us", "us", "lower"),
    ("wdm.blocked", "count", "lower"),
    ("proc.cpu_share.loadgen", "ratio", "lower"),
    ("proc.cpu_share.tier", "ratio", "lower"),
    ("proc.cpu_share.workers", "ratio", "higher"),
]

ROUTE_OP = 0x01


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "extra")

    def __init__(self, row) -> None:
        (self.id, self.name, self.start, self.end, self.parent, _thread,
         self.request, self.extra) = row

    @property
    def us(self) -> float:
        return (self.end - self.start) / 1e3


class Process:
    """One process's spans inside the timed window, indexed by name."""

    def __init__(self, document: dict, window: tuple[int, int]) -> None:
        self.role = document["role"]
        begin, end = window
        self.spans = [
            span
            for span in map(Span, document["spans"])
            if span.start >= begin and span.end <= end
        ]
        self.by_name: dict[str, list[Span]] = {}
        self.child_us: dict[int, float] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self.child_us[span.parent] = self.child_us.get(span.parent, 0.0) + span.us

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_us(self, span: Span) -> float:
        return span.us - self.child_us.get(span.id, 0.0)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _stage(values) -> dict:
    """A stage's distribution: count, mean, p50, p99 (microseconds)."""
    values = sorted(values)
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}
    return {
        "count": len(values),
        "mean": statistics.fmean(values),
        "p50": values[len(values) // 2],
        "p99": values[min(len(values) - 1, int(len(values) * 0.99))],
    }


def served_layers(documents: list[dict], observed: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the stage table of a served run."""
    window = observed["window_ns"]
    processes = [Process(doc, window) for doc in documents]
    loadgen = next(p for p in processes if p.role == "loadgen")
    tier = next(p for p in processes if p.role == "tier")
    workers = [p for p in processes if p.role == "worker"]

    routes = loadgen.named("frontend.route")
    clients = {span.id for span in loadgen.named("client.route")}
    requests = max(1, len(routes))

    def under_client(name: str) -> float:
        return sum(s.us for s in loadgen.named(name) if s.parent in clients)

    rtt = _stage(s.us for s in routes)
    frontend_self = _stage(loadgen.self_us(s) for s in routes)
    wait = _stage(loadgen.self_us(s) for s in loadgen.named("client.route"))
    encode = under_client("client.encode") / requests
    decode = (under_client("client.unpickle") + under_client("client.decode_path")) / requests
    residence = _stage(s.us for s in tier.named("server.residence") if s.extra == ROUTE_OP)
    reply = _stage(s.us for s in tier.named("server.reply") if s.extra == ROUTE_OP)

    computes = [s for w in workers for s in w.named("worker.compute")]
    compute = _stage(s.us for s in computes)
    jobs = max(1, len(computes))
    builds = [s for w in workers for s in w.named("forest.build")]
    decodes = [s for w in workers for s in w.named("forest.decode")]
    built_in = {(id(w), s.parent) for w in workers for s in w.named("forest.build")}
    hits = sum(
        1 for w in workers for s in w.named("worker.compute") if (id(w), s.id) not in built_in
    )
    kernels = [s for w in workers for s in w.named("kernel.search")]
    applies = tier.named("patch.apply")
    queue_wait = residence["mean"] - compute["mean"] - reply["mean"]
    attributed = (
        frontend_self["mean"] + encode + decode + queue_wait + compute["mean"] + reply["mean"]
    )
    counters = observed["counters"]
    shard_queries = counters["shard_queries"]
    metrics = {
        "client.rtt_us": rtt["mean"],
        "cluster.frontend_self_us": frontend_self["mean"],
        "cluster.shard_skew": (
            max(shard_queries) / statistics.fmean(shard_queries) if any(shard_queries) else 0.0
        ),
        "cluster.failovers": counters["failovers"],
        "cluster.shed": counters["shed"],
        "client.encode_us": encode,
        "client.decode_us": decode,
        "client.wait_us": wait["mean"],
        "server.residence_us": residence["mean"],
        "server.queue_wait_us": queue_wait,
        "server.reply_us": reply["mean"],
        "served.unattributed_us": rtt["mean"] - attributed,
        "worker.compute_us": compute["mean"],
        "worker.read_retries": sum(s.extra or 0 for s in computes),
        "forest.builds_per_kop": 1000.0 * len(builds) / jobs,
        "forest.build_us": _mean(s.us for s in builds),
        "forest.decodes_per_kop": 1000.0 * len(decodes) / jobs,
        "forest.decode_us": _mean(s.us for s in decodes),
        "forest.hit_ratio": hits / jobs if computes else 0.0,
        "patch.rtt_us": _mean(s.us for s in loadgen.named("frontend.patch")),
        "patch.apply_us": _mean(s.us for s in applies),
        "patch.slots": _mean(s.extra for s in applies if s.extra >= 0),
        "gossip.forwarded": counters["gossip"]["forwarded"],
        "gossip.duplicates": counters["gossip"]["duplicates"],
        "gossip.failed": counters["gossip"]["failed"],
        "kernel.search_us": _mean(s.us for s in kernels),
        "kernel.settled": _mean(s.extra[0] for s in kernels),
        "kernel.relaxations": _mean(s.extra[1] for s in kernels),
    }
    stages = [
        ("cluster.frontend self", "loadgen", frontend_self),
        ("client encode (server.protocol)", "loadgen", {"mean": encode}),
        ("client decode (unpickle + decode_path)", "loadgen", {"mean": decode}),
        ("server dispatch + queue hops", "tier", {"mean": queue_wait}),
        ("worker compute (read_stable)", "worker", compute),
        ("server reply (send_frame)", "tier", reply),
        (
            "unattributed (socket, request read, wake-ups)",
            "-",
            {"mean": metrics["served.unattributed_us"]},
        ),
    ]
    table = {"total": ("client RTT (frontend.route)", "loadgen", rtt), "stages": stages}
    return metrics, table


def provision_layers(documents: list[dict], observed: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the stage table of a provision_dynamic run."""
    loadgen = next(
        Process(doc, observed["window_ns"]) for doc in documents if doc["role"] == "loadgen"
    )
    ops = max(1, len(observed["ops"]))

    def per_op(name: str) -> float:
        return sum(s.us for s in loadgen.named(name)) / ops

    def prefix(name: str) -> list[Span]:
        return [
            s for s in loadgen.named(name) if s.request is not None and s.request < EXACT_PREFIX
        ]

    routes = loadgen.named("core.route")
    metrics = {
        "wdm.residual_us": _mean(s.us for s in loadgen.named("wdm.residual")),
        "core.build_layered_us": _mean(s.us for s in loadgen.named("core.build_layered")),
        "core.layered_edges": _mean(s.extra for s in prefix("core.build_layered")),
        "core.router_init_us": _mean(s.us for s in loadgen.named("core.router_init")),
        "core.route_self_us": _mean(loadgen.self_us(s) for s in routes),
        "kernel.search_us": _mean(s.us for s in loadgen.named("kernel.search")),
        "kernel.settled": _mean(s.extra[0] for s in prefix("kernel.search")),
        "kernel.relaxations": _mean(s.extra[1] for s in prefix("kernel.search")),
        "wdm.reserve_us": _mean(s.us for s in loadgen.named("wdm.reserve")),
        "wdm.release_us": _mean(s.us for s in loadgen.named("wdm.release")),
        "wdm.blocked": observed["blocked_prefix"],
    }
    op = _stage(latency / 1e3 for _end, latency in observed["ops"])
    parts = [
        ("wdm.state release_path (due departures)", per_op("wdm.release")),
        ("wdm.provisioning residual_network", per_op("wdm.residual")),
        ("core.routing LiangShenRouter.__init__", per_op("core.router_init")),
        ("core.auxiliary build_layered_graph", per_op("core.build_layered")),
        ("shortestpath.flat kernel", per_op("kernel.search")),
        ("core.routing route self", sum(loadgen.self_us(s) for s in routes) / ops),
        ("wdm.state reserve_path", per_op("wdm.reserve")),
    ]
    remainder = op["mean"] - sum(value for _name, value in parts)
    stages = [(name, "loadgen", {"mean": value}) for name, value in parts]
    stages.append(
        ("unattributed (admission loop, re-pricing)", "loadgen", {"mean": remainder})
    )
    return metrics, {"total": ("op (one arrival)", "loadgen", op), "stages": stages}


def per_layer(workload: str, documents: list[dict], observed: dict) -> tuple[dict, dict]:
    """Every per-layer metric for *workload* (0 where a layer is idle)."""
    if workload == "provision_dynamic":
        found, table = provision_layers(documents, observed)
    else:
        found, table = served_layers(documents, observed)
    cpu = observed["cpu_s"]
    total = sum(cpu.values()) or 1.0
    for name in ("loadgen", "tier", "workers"):
        found[f"proc.cpu_share.{name}"] = cpu.get(name, 0.0) / total
    metrics = {name: float(found.get(name, 0.0)) for name, _unit, _better in METRICS}
    return metrics, table
