"""Command-line interface.

```
python -m repro generate ring --nodes 12 --wavelengths 4 -o net.json
python -m repro route net.json 0 6
python -m repro route net.json 0 6 --max-conversions 1 --alternatives 3
python -m repro all-pairs net.json
python -m repro sizes net.json
python -m repro provision net.json --load 30 --requests 500 --policy first-fit
python -m repro serve net.json --workers 4 --host 127.0.0.1 --port 4500
python -m repro chaos net.json --cluster --seconds 30 --faults 8
python -m repro multicast net.json --source 1 --member 4 --member 6
python -m repro multicast --seconds 60 --seed 1998
python -m repro dot net.json --figure fig3 --node 3
python -m repro --version
```

Every subcommand reads/writes the JSON documents of
:mod:`repro.io.serialization`, so pipelines compose: generate a topology,
inspect its auxiliary-graph sizes, route on it, replay traffic over it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.counting import measure_sizes
from repro.core.bounded import BoundedConversionRouter
from repro.core.ksp import k_shortest_semilightpaths
from repro.core.network import WDMNetwork
from repro.core.routing import LiangShenRouter
from repro.core.wavelengths import wavelength_name
from repro.exceptions import NoPathError, SemilightError
from repro.io.dot import (
    bipartite_to_dot,
    multigraph_to_dot,
    network_to_dot,
    routing_graph_to_dot,
)
from repro.io.serialization import network_from_json, network_to_json, path_to_json
from repro.server.protocol import valid_ip, valid_port

from repro import __version__

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_BOUNDS",
    "EXIT_REJECTED",
    "EXIT_DISAGREEMENT",
    "EXIT_VIOLATION",
]

# Unified exit codes across subcommands (documented in docs/verification.md).
EXIT_OK = 0  #: success
EXIT_ERROR = 1  #: usage error, missing file, or no route found
EXIT_BOUNDS = 2  #: `sizes`: an auxiliary-graph size exceeds its paper bound
EXIT_REJECTED = 3  #: `plan`: some demands could not be carried
EXIT_DISAGREEMENT = 4  #: `verify`/`fuzz`/`multicast`: disagreement or failed corpus case
EXIT_VIOLATION = 5  #: `chaos`: a soak invariant was violated


def _parse_node(raw: str):
    """CLI node ids: integers when they look like integers, else strings."""
    try:
        return int(raw)
    except ValueError:
        return raw


def _load_network(path: str) -> WDMNetwork:
    return network_from_json(Path(path).read_text())


def _format_path(path) -> str:
    hops = " -> ".join(
        f"{hop.tail}[{wavelength_name(hop.wavelength)}]{hop.head}"
        for hop in path.hops
    )
    conversions = "; ".join(
        f"{c.node}: {wavelength_name(c.from_wavelength)}->"
        f"{wavelength_name(c.to_wavelength)}"
        for c in path.conversions()
    )
    lines = [f"cost {path.total_cost:g}  hops {path.num_hops}  {hops}"]
    if conversions:
        lines.append(f"converter settings: {conversions}")
    else:
        lines.append("lightpath: no conversion needed")
    return "\n".join(lines)


def _cmd_route(args: argparse.Namespace) -> int:
    network = _load_network(args.network)
    source = _parse_node(args.source)
    target = _parse_node(args.target)
    try:
        if args.alternatives > 1:
            paths = k_shortest_semilightpaths(
                network, source, target, k=args.alternatives
            )
        elif args.max_conversions is not None:
            router = BoundedConversionRouter(network)
            paths = [router.route(source, target, args.max_conversions).path]
        else:
            paths = [LiangShenRouter(network).route(source, target).path]
    except NoPathError:
        print(f"no semilightpath from {source!r} to {target!r}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps([json.loads(path_to_json(p)) for p in paths], indent=2))
    else:
        for rank, path in enumerate(paths, 1):
            prefix = f"#{rank}: " if len(paths) > 1 else ""
            print(prefix + _format_path(path))
    return EXIT_OK


def _cmd_all_pairs(args: argparse.Namespace) -> int:
    import time

    network = _load_network(args.network)
    router = LiangShenRouter(network, heap=args.heap)
    start = time.perf_counter()
    result = router.route_all_pairs()
    elapsed = time.perf_counter() - start
    n = len(network.nodes())
    print(
        f"routed {len(result.paths)} of {n * (n - 1)} ordered pairs "
        f"in {elapsed:.3f}s (heap={args.heap}; "
        f"settled {result.stats.settled}, relaxed {result.stats.relaxations})"
    )
    if args.output:
        document = {
            f"{s} -> {t}": path.total_cost for (s, t), path in result.paths.items()
        }
        Path(args.output).write_text(json.dumps(document, indent=2))
        print(f"wrote {len(document)} pair costs to {args.output}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.topology.generators import (
        degree_bounded_network,
        grid_network,
        ring_network,
        waxman_network,
    )
    from repro.topology.reference import (
        arpanet_network,
        nsfnet_network,
        paper_figure1_network,
    )

    k = args.wavelengths
    kind = args.kind
    if kind == "ring":
        net = ring_network(args.nodes, k, seed=args.seed)
    elif kind == "grid":
        side = max(2, int(args.nodes**0.5))
        mesh = grid_network(side, side, k, seed=args.seed)
        # Grid labels are (row, col) tuples, which JSON cannot carry;
        # relabel to "row.col" strings for the serialized document.
        net = WDMNetwork(k, mesh.conversion(mesh.nodes()[0]))
        rename = {node: f"{node[0]}.{node[1]}" for node in mesh.nodes()}
        for node in mesh.nodes():
            net.add_node(rename[node], mesh.conversion(node))
        for link in mesh.links():
            net.add_link(rename[link.tail], rename[link.head], dict(link.costs))
    elif kind == "waxman":
        net = waxman_network(args.nodes, k, seed=args.seed)
    elif kind == "degree-bounded":
        net = degree_bounded_network(args.nodes, k, seed=args.seed)
    elif kind == "nsfnet":
        net = nsfnet_network(num_wavelengths=k, seed=args.seed)
    elif kind == "arpanet":
        net = arpanet_network(num_wavelengths=k, seed=args.seed)
    elif kind == "paper-fig1":
        net = paper_figure1_network()
    else:  # pragma: no cover - argparse choices prevent this
        raise ValueError(kind)
    text = network_to_json(net, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {net!r} to {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_sizes(args: argparse.Namespace) -> int:
    network = _load_network(args.network)
    report = measure_sizes(network)
    print(report.format())
    return EXIT_OK if report.all_within else EXIT_BOUNDS


def _cmd_provision(args: argparse.Namespace) -> int:
    from repro.wdm.first_fit import FirstFitProvisioner
    from repro.wdm.provisioning import SemilightpathProvisioner
    from repro.wdm.simulation import DynamicSimulation
    from repro.wdm.traffic import TrafficGenerator

    network = _load_network(args.network)
    factory = (
        FirstFitProvisioner if args.policy == "first-fit" else SemilightpathProvisioner
    )
    trace = TrafficGenerator(
        network.nodes(), args.load, args.holding, seed=args.seed
    ).generate(args.requests)
    stats = DynamicSimulation(factory(network)).run(trace)
    print(
        f"policy={args.policy} load={args.load}E requests={stats.offered} "
        f"blocked={stats.blocked} P_block={stats.blocking_probability:.4f} "
        f"hops/conn={stats.mean_hops:.2f} conv/conn={stats.mean_conversions:.2f}"
    )
    return EXIT_OK


def _oracle_matrix(args: argparse.Namespace):
    """The oracle tuple for verify/fuzz, plus the live-server manager.

    With ``--server`` the matrix gains ``liang:server``: every scenario
    is also answered by a live UDS router server (net-zero PATCH churn
    included) and must match byte-for-byte.  The caller owns closing the
    returned manager and auditing shared segments afterwards.
    """
    if not getattr(args, "server", False):
        return None, None
    from repro.verify.oracles import (
        ServerOracleManager,
        default_oracles,
        server_oracle,
    )

    manager = ServerOracleManager()
    return default_oracles() + (server_oracle(manager),), manager


def _audit_segments(before: set[str]) -> int:
    """Nonzero (EXIT_VIOLATION) when a run left shared segments behind."""
    from repro.shortestpath.shared import leaked_segments

    leaked = sorted(set(leaked_segments()) - before)
    if leaked:
        print(
            f"error: leaked shared-memory segment(s): {', '.join(leaked)}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _replay(corpus: str, harness) -> tuple[int, int]:
    """Replay *corpus* through *harness*, printing each failing case.
    Returns ``(cases replayed, cases failed)``."""
    from repro.verify import replay_corpus

    results = replay_corpus(corpus, harness)
    failures = 0
    for case, report in results:
        if not report.ok:
            failures += 1
            print(f"corpus case {case.name} FAILED:")
            print(report.format())
    return len(results), failures


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.shortestpath.shared import leaked_segments
    from repro.verify import DifferentialHarness, random_scenario
    from repro.verify.scenarios import ScenarioLimits

    segments_before = set(leaked_segments())
    oracles, manager = _oracle_matrix(args)
    harness = DifferentialHarness(oracles)
    checked = 0
    try:
        replayed, failures = _replay(args.corpus, harness)
        limits = ScenarioLimits(max_nodes=args.max_nodes)
        for index in range(args.scenarios):
            report = harness.run(
                random_scenario(args.seed + index, limits=limits)
            )
            checked += report.queries_checked
            if not report.ok:
                failures += 1
                print(report.format())
    finally:
        if manager is not None:
            manager.close()
    print(
        f"verify: {replayed} corpus case(s) replayed, {args.scenarios} seeded "
        f"scenario(s) ({checked} queries) through {len(harness.oracles)} oracles; "
        f"{failures} failure(s)"
    )
    leak_status = _audit_segments(segments_before)
    if failures:
        return EXIT_DISAGREEMENT
    return leak_status


def _persist_failure(run, report, corpus: str, shrink: bool = True):
    """Print a failing *report*, shrink its scenario while ``run`` still
    fails it, and save the result to *corpus*.  Returns ``(scenario,
    path)``.  Shared by ``fuzz`` and both ``multicast`` checking modes."""
    from repro.verify import save_case, shrink_scenario

    print()
    print(report.format())
    scenario = report.scenario
    if shrink:
        scenario = shrink_scenario(scenario, lambda s: not run(s).ok)
        print(f"shrunk to {scenario!r}")
    disagreements = [d.summary() for d in run(scenario).disagreements]
    path = save_case(corpus, scenario, disagreements)
    print(f"persisted to {path}")
    return scenario, path


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.shortestpath.shared import leaked_segments
    from repro.verify import DifferentialHarness, fuzz, random_scenario
    from repro.verify.scenarios import ScenarioLimits

    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return EXIT_ERROR
    segments_before = set(leaked_segments())
    oracles, manager = _oracle_matrix(args)
    harness = DifferentialHarness(oracles)
    limits = ScenarioLimits(max_nodes=args.max_nodes)
    try:
        result = fuzz(
            harness.run,
            lambda seed: random_scenario(seed, limits=limits),
            seconds=args.seconds,
            seed=args.seed,
        )
        matrix = (
            f"{len(harness.oracles)} oracles (incl. liang:server)"
            if manager is not None
            else f"{len(harness.oracles)} oracles"
        )
        print(
            f"fuzz: {result.scenarios_run} scenario(s), "
            f"{result.counters['queries_checked']} "
            f"queries through {matrix} in "
            f"{result.elapsed:.1f}s (seed {result.seed}); "
            f"{len(result.failures)} failure(s)"
        )
        for report in result.failures:
            _persist_failure(
                harness.run, report, args.corpus, shrink=not args.no_shrink
            )
    finally:
        if manager is not None:
            manager.close()
    leak_status = _audit_segments(segments_before)
    if not result.ok:
        return EXIT_DISAGREEMENT
    return leak_status


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import RouterServer

    network = _load_network(args.network)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    if args.uds is not None:
        server = RouterServer(network, workers=args.workers, uds=args.uds)
    else:
        server = RouterServer(
            network, workers=args.workers, host=args.host, port=args.port
        )
    # SIGTERM/SIGINT drain in-flight jobs, unlink the segment, and let
    # join() return — a supervisor's TERM leaves no /dev/shm residue.
    # Installed before start() binds the socket and forks the workers,
    # so no signal can find them there with the default action pending.
    server.install_signal_handlers()
    server.start()
    address = server.address
    shown = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
    print(f"router server listening on {shown}")
    print(
        f"segment {server.segment_name}: {server._shared.num_nodes} aux "
        f"nodes, {server._shared.num_edges} edges, {args.workers} worker(s)"
    )
    try:
        server.join()
    finally:
        server.close()
    return EXIT_OK


def _chaos_networks(args: argparse.Namespace) -> list[tuple[str, WDMNetwork]]:
    """The networks one chaos run soaks: explicit file, else the golden
    corpus scenarios, else the built-in reference topologies."""
    if args.network:
        return [(args.network, _load_network(args.network))]
    from repro.verify.corpus import iter_corpus

    networks = [
        (case.name, case.scenario.network)
        for case in iter_corpus(args.corpus)
        if len(case.scenario.network.nodes()) >= 2
    ]
    if networks:
        return networks
    from repro.topology.reference import nsfnet_network, paper_figure1_network

    return [
        ("paper-fig1", paper_figure1_network()),
        ("nsfnet", nsfnet_network(num_wavelengths=4, seed=args.seed)),
    ]


def _chaos_cluster(
    args: argparse.Namespace,
    networks: "list[tuple[str, WDMNetwork]]",
    budget: float,
) -> int:
    """``repro chaos --cluster``: soak the sharded tier instead of the
    in-process service stack.  Exit 5 on any violation or leaked segment."""
    from repro.cluster import ClusterSoak
    from repro.shortestpath.shared import leaked_segments

    if args.shards < 1 or args.replicas < 1:
        print("--shards/--replicas must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    segments_before = set(leaked_segments())
    total_violations = 0
    for index, (name, network) in enumerate(networks):
        soak = ClusterSoak(
            network,
            shards=args.shards,
            replicas=args.replicas,
            seconds=budget,
            num_faults=args.faults,
            seed=args.seed + index,
        )
        report = soak.run()
        print(f"[{name}] tier {args.shards}x{args.replicas}:")
        summary = report.to_dict()
        for key in (
            "events_applied", "queries", "verified", "mismatches",
            "certificate_failures", "convergence_failures",
            "parity_failures", "gossip",
        ):
            print(f"  {key}: {summary[key]}")
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        total_violations += len(report.violations)
        print()
    leak_status = _audit_segments(segments_before)
    if total_violations:
        print(
            f"chaos --cluster: {total_violations} violation(s) across "
            f"{len(networks)} network(s)",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    print(
        f"chaos --cluster: all invariants held across {len(networks)} "
        f"network(s)"
    )
    return leak_status


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import ChaosSoak

    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return EXIT_ERROR
    if args.faults < 1:
        print("--faults must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    networks = _chaos_networks(args)
    budget = args.seconds / len(networks)
    if args.cluster:
        if args.inject_cost_bug:
            print(
                "--inject-cost-bug targets the in-process service stack; "
                "it cannot be combined with --cluster",
                file=sys.stderr,
            )
            return EXIT_ERROR
        return _chaos_cluster(args, networks, budget)
    perturbation = 0.125 if args.inject_cost_bug else 0.0
    total_violations = 0
    caught = persisted = 0
    for index, (name, network) in enumerate(networks):
        soak = ChaosSoak(
            network,
            seed=args.seed + index,
            duration=budget,
            num_faults=args.faults,
            cost_perturbation=perturbation,
            corpus_dir=args.repro_dir,
        )
        report = soak.run()
        print(f"[{name}]")
        print(report.format())
        print()
        total_violations += report.violations_total
        if report.violations_total:
            caught += 1
        persisted += len(report.persisted)
    if args.inject_cost_bug:
        # Self-test mode: the soak must CATCH the intentionally broken
        # backend (and persist a shrunk repro), or the guardrail is dead.
        if caught == len(networks) and persisted:
            print(
                f"chaos self-test: injected cost bug caught on all "
                f"{len(networks)} network(s), {persisted} repro(s) persisted"
            )
            return EXIT_OK
        print(
            "chaos self-test FAILED: injected cost bug went undetected",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if total_violations:
        print(
            f"chaos: {total_violations} invariant violation(s) across "
            f"{len(networks)} network(s)",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    print(f"chaos: all invariants held across {len(networks)} network(s)")
    return EXIT_OK


def _cmd_multicast(args: argparse.Namespace) -> int:
    from repro.multicast import (
        MulticastHarness,
        MulticastRequest,
        MulticastRouter,
        random_multicast_scenario,
    )

    # One-shot route mode: a network file plus --source/--member.
    if args.network:
        if args.source is None or not args.member:
            print("--source and at least one --member are required with a "
                  "network file", file=sys.stderr)
            return EXIT_ERROR
        network = _load_network(args.network)
        splitters = None
        if args.splitter_density is not None:
            from repro.topology.generators import assign_splitters

            splitters = assign_splitters(
                network, density=args.splitter_density, seed=args.seed
            )
        request = MulticastRequest(
            source=_parse_node(args.source),
            members=tuple(_parse_node(m) for m in args.member),
        )
        try:
            result = MulticastRouter(network, splitters=splitters).route(request)
        except NoPathError as exc:
            print(f"multicast blocked: {exc}", file=sys.stderr)
            return EXIT_ERROR
        hierarchy = result.hierarchy
        print(
            f"light-hierarchy cost {hierarchy.total_cost:g}  "
            f"channels {len(hierarchy.channel_keys())}  "
            f"grafts {result.grafts}  taps {result.taps}"
        )
        for member in hierarchy.members:
            print(f"-> {member!r}: " + _format_path(hierarchy.paths[member]))
        from repro.verify.certificate import check_hierarchy_certificate

        cert = check_hierarchy_certificate(
            network, hierarchy, splitters=splitters,
            source=request.source, members=request.members,
        )
        if not cert.ok:
            for violation in cert.violations:
                print(f"certificate violation: {violation}", file=sys.stderr)
            return EXIT_VIOLATION
        print("certificate: valid")
        return EXIT_OK

    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return EXIT_ERROR

    # Churn-soak mode: seeded fault + membership churn over the reference
    # topologies until the budget runs out.
    if args.churn:
        import time as _time

        from repro.multicast import MulticastChurnSoak
        from repro.topology.reference import nsfnet_network, paper_figure1_network

        networks = [
            ("paper-fig1", paper_figure1_network()),
            ("nsfnet", nsfnet_network(num_wavelengths=4, seed=args.seed)),
        ]
        deadline = _time.monotonic() + args.seconds
        soaks = violations = blocked_at_end = 0
        round_seed = args.seed
        while True:
            for index, (name, network) in enumerate(networks):
                soak = MulticastChurnSoak(
                    network,
                    seed=round_seed + index,
                    num_groups=args.groups,
                    num_faults=args.faults,
                    num_membership_events=args.faults,
                )
                report = soak.run()
                soaks += 1
                violations += len(report.violations)
                blocked_at_end += report.final_blocked
                if not report.ok:
                    print(f"[{name} seed={round_seed + index}]")
                    print(report.format())
                    print()
            round_seed += len(networks)
            if _time.monotonic() >= deadline:
                break
        if violations or blocked_at_end:
            print(
                f"multicast churn: {violations} certificate violation(s), "
                f"{blocked_at_end} unrecovered group(s) across {soaks} soak(s)",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        print(
            f"multicast churn: {soaks} soak(s) clean — severed branches "
            f"rerouted, per-epoch certificates valid"
        )
        return EXIT_OK

    # Self-test mode: an intentionally mispriced hierarchy must be caught
    # on every scenario that routed, and at least one failure must shrink
    # and persist.
    if args.inject_cost_bug:
        harness = MulticastHarness(cost_perturbation=0.125)
        missed = routed_scenarios = 0
        persisted = None
        for index in range(args.scenarios):
            report = harness.run(random_multicast_scenario(args.seed + index))
            if not report.routed:
                continue
            routed_scenarios += 1
            if report.ok:
                missed += 1
                print(f"seed {args.seed + index}: bug went undetected")
            elif persisted is None:
                shrunk, persisted = _persist_failure(
                    harness.run, report, args.corpus
                )
                members = max(
                    (len(r.members) for r in shrunk.requests), default=0
                )
                print(f"minimal member set of {members}")
        if missed == 0 and routed_scenarios and persisted is not None:
            print(
                f"multicast self-test: injected cost bug caught on all "
                f"{routed_scenarios} routed scenario(s)"
            )
            return EXIT_OK
        print(
            "multicast self-test FAILED: injected cost bug went undetected",
            file=sys.stderr,
        )
        return EXIT_ERROR

    # Default: replay the corpus, then a time-budgeted fuzz of the
    # heuristic against the exact small-instance oracle plus the
    # hierarchy certificate.
    from repro.verify import fuzz

    harness = MulticastHarness()
    replayed, replay_failures = _replay(args.corpus, harness)
    result = fuzz(
        harness.run,
        random_multicast_scenario,
        seconds=args.seconds,
        seed=args.seed,
    )
    counters = result.counters
    print(
        f"multicast fuzz: {replayed} corpus case(s) replayed "
        f"({replay_failures} failed); {result.scenarios_run} scenario(s), "
        f"{counters['requests_checked']} request(s) "
        f"({counters['oracle_checked']} oracle-compared, "
        f"{counters['blocked']} heuristic-blocked) in {result.elapsed:.1f}s "
        f"(seed {result.seed}); {len(result.failures)} failure(s)"
    )
    for report in result.failures:
        _persist_failure(
            harness.run, report, args.corpus, shrink=not args.no_shrink
        )
    if replay_failures or not result.ok:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.topology.traffic_matrices import gravity_demands, uniform_demands
    from repro.wdm.planner import Demand, StaticPlanner

    network = _load_network(args.network)
    if args.demands:
        document = json.loads(Path(args.demands).read_text())
        demands = [
            Demand(d["source"], d["target"], int(d.get("count", 1)))
            for d in document
        ]
    elif args.gravity:
        demands = gravity_demands(network.nodes(), args.gravity, seed=args.seed)
    else:
        demands = uniform_demands(network.nodes(), probability=0.3, seed=args.seed)
    plan = StaticPlanner(
        network, ordering=args.ordering, restarts=args.restarts, seed=args.seed
    ).plan(demands)
    print(
        f"carried {plan.circuits_carried}/{plan.circuits_requested} circuits "
        f"({plan.acceptance_ratio:.0%}) at total cost {plan.total_cost:g}"
    )
    for demand in plan.rejected:
        print(f"  rejected: {demand.source!r} -> {demand.target!r} x{demand.count}")
    return EXIT_OK if not plan.rejected else EXIT_REJECTED


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS, run_all

    if args.only:
        unknown = [name for name in args.only if name not in EXPERIMENTS]
        if unknown:
            print(
                f"unknown experiments: {unknown}; "
                f"available: {sorted(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    report = run_all(scale=args.scale, only=args.only)
    if args.markdown:
        from repro.analysis.reporting import render_markdown

        text = render_markdown(report)
    else:
        text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {len(report)} experiment results to {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    network = _load_network(args.network)
    figure = args.figure
    if figure == "fig1":
        print(network_to_dot(network))
    elif figure == "fig2":
        print(multigraph_to_dot(network))
    elif figure == "fig3":
        if args.node is None:
            print("--node is required for fig3", file=sys.stderr)
            return EXIT_ERROR
        print(bipartite_to_dot(network, _parse_node(args.node)))
    elif figure == "gst":
        if args.source is None or args.target is None:
            print("--source and --target are required for gst", file=sys.stderr)
            return EXIT_ERROR
        print(
            routing_graph_to_dot(
                network, _parse_node(args.source), _parse_node(args.target)
            )
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal lightpath/semilightpath routing (Liang & Shen, ICDCS 1998)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="find an optimal semilightpath")
    p_route.add_argument("network", help="network JSON file")
    p_route.add_argument("source")
    p_route.add_argument("target")
    p_route.add_argument(
        "--max-conversions", type=int, default=None, help="conversion budget"
    )
    p_route.add_argument(
        "--alternatives", type=int, default=1, help="K shortest alternatives"
    )
    p_route.add_argument("--json", action="store_true", help="machine-readable output")
    p_route.set_defaults(fn=_cmd_route)

    p_all = sub.add_parser(
        "all-pairs",
        help="route every ordered pair (Corollary 1)",
    )
    p_all.add_argument("network")
    p_all.add_argument(
        "--heap", choices=["flat", "binary", "pairing", "fibonacci"],
        default="flat", help="shortest-path kernel",
    )
    p_all.add_argument("-o", "--output", default=None, help="write pair costs JSON")
    p_all.set_defaults(fn=_cmd_all_pairs)

    p_gen = sub.add_parser("generate", help="generate a network JSON document")
    p_gen.add_argument(
        "kind",
        choices=[
            "ring", "grid", "waxman", "degree-bounded",
            "nsfnet", "arpanet", "paper-fig1",
        ],
    )
    p_gen.add_argument("--nodes", type=int, default=16)
    p_gen.add_argument("--wavelengths", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(fn=_cmd_generate)

    p_sizes = sub.add_parser(
        "sizes", help="auxiliary-graph sizes vs the paper's Observation bounds"
    )
    p_sizes.add_argument("network")
    p_sizes.set_defaults(fn=_cmd_sizes)

    p_prov = sub.add_parser("provision", help="dynamic-traffic blocking run")
    p_prov.add_argument("network")
    p_prov.add_argument("--load", type=float, default=20.0, help="Erlang load")
    p_prov.add_argument("--holding", type=float, default=1.0)
    p_prov.add_argument("--requests", type=int, default=300)
    p_prov.add_argument("--seed", type=int, default=0)
    p_prov.add_argument(
        "--policy", choices=["semilightpath", "first-fit"], default="semilightpath"
    )
    p_prov.set_defaults(fn=_cmd_provision)

    p_srv = sub.add_parser(
        "serve",
        help="persistent shared-memory router server (TCP or UDS)",
    )
    p_srv.add_argument("network")
    p_srv.add_argument(
        "--host", type=valid_ip, default="127.0.0.1",
        help="TCP bind address (IPv4)",
    )
    p_srv.add_argument(
        "--port", type=valid_port, default=0,
        help="TCP port (0 = ephemeral)",
    )
    p_srv.add_argument(
        "--uds", default=None, metavar="PATH",
        help="serve on a unix-domain socket instead of TCP "
        "('' = a generated temp path)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=2, help="warm worker processes"
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_verify = sub.add_parser(
        "verify",
        help="replay the golden corpus and a seeded scenario sweep "
        "through the differential oracle matrix",
    )
    p_verify.add_argument(
        "--corpus", default="tests/verify/corpus",
        help="golden corpus directory (missing = empty corpus)",
    )
    p_verify.add_argument(
        "--scenarios", type=int, default=25,
        help="number of fresh seeded scenarios to sweep",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--max-nodes", type=int, default=9, help="scenario size ceiling"
    )
    p_verify.add_argument(
        "--server", action="store_true",
        help="add the liang:server oracle: every scenario is also routed "
        "through a live UDS router server (PATCH churn included) and must "
        "answer byte-identically; leaked segments exit 5",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="time-budgeted differential fuzzing; failures are shrunk "
        "and persisted to the corpus",
    )
    p_fuzz.add_argument("--seconds", type=float, default=30.0)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--corpus", default="tests/verify/corpus",
        help="where shrunk counterexamples are written",
    )
    p_fuzz.add_argument(
        "--max-nodes", type=int, default=9, help="scenario size ceiling"
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="persist failing scenarios unshrunk (faster triage loop)",
    )
    p_fuzz.add_argument(
        "--server", action="store_true",
        help="add the liang:server oracle (live UDS server per scenario, "
        "byte-identical answers required; leaked segments exit 5)",
    )
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_chaos = sub.add_parser(
        "chaos",
        help="time-budgeted fault-injection soak asserting serving invariants",
    )
    p_chaos.add_argument(
        "network", nargs="?", default=None,
        help="network JSON file (default: golden corpus networks, else "
        "built-in reference topologies)",
    )
    p_chaos.add_argument(
        "--seconds", type=float, default=30.0,
        help="total wall-clock budget, split across the soaked networks",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--faults", type=int, default=20,
        help="injected faults per network (recoveries are implied)",
    )
    p_chaos.add_argument(
        "--corpus", default="tests/verify/corpus",
        help="golden corpus whose networks are soaked when no network "
        "file is given",
    )
    p_chaos.add_argument(
        "--repro-dir", default="chaos-repros",
        help="where shrunk violation repros are persisted",
    )
    p_chaos.add_argument(
        "--inject-cost-bug", action="store_true",
        help="self-test: run with an intentionally mispricing backend and "
        "succeed only if the soak catches and persists it",
    )
    p_chaos.add_argument(
        "--cluster", action="store_true",
        help="soak the sharded serving tier (live RouterServer replicas "
        "with gossip) instead of the in-process service stack",
    )
    p_chaos.add_argument(
        "--shards", type=int, default=2, help="--cluster: shard count"
    )
    p_chaos.add_argument(
        "--replicas", type=int, default=2,
        help="--cluster: replicas per shard",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_mc = sub.add_parser(
        "multicast",
        help="light-hierarchy multicast: route one-to-many demands, fuzz "
        "the heuristic against the exact oracle, or soak under churn",
    )
    p_mc.add_argument(
        "network", nargs="?", default=None,
        help="network JSON file for one-shot routing (omit to fuzz)",
    )
    p_mc.add_argument("--source", default=None, help="multicast source node")
    p_mc.add_argument(
        "--member", action="append", default=[], metavar="NODE",
        help="destination member (repeatable)",
    )
    p_mc.add_argument(
        "--splitter-density", type=float, default=None, metavar="D",
        help="fraction of multicast-capable nodes for one-shot routing "
        "(default: all nodes fully capable)",
    )
    p_mc.add_argument(
        "--seconds", type=float, default=30.0,
        help="fuzz/churn wall-clock budget",
    )
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument(
        "--corpus", default="tests/multicast/corpus",
        help="corpus replayed before fuzzing, and where shrunk "
        "counterexamples are written",
    )
    p_mc.add_argument(
        "--no-shrink", action="store_true",
        help="persist failing scenarios unshrunk (faster triage loop)",
    )
    p_mc.add_argument(
        "--scenarios", type=int, default=25,
        help="seeded scenarios swept by --inject-cost-bug",
    )
    p_mc.add_argument(
        "--inject-cost-bug", action="store_true",
        help="self-test: misprice every hierarchy by +0.125 and succeed "
        "only if the certificate catches it and a shrunk repro persists",
    )
    p_mc.add_argument(
        "--churn", action="store_true",
        help="fault + membership churn soak instead of fuzzing",
    )
    p_mc.add_argument(
        "--groups", type=int, default=2, help="multicast groups per churn soak"
    )
    p_mc.add_argument(
        "--faults", type=int, default=10,
        help="faults (and membership events) per churn soak",
    )
    p_mc.set_defaults(fn=_cmd_multicast)

    p_plan = sub.add_parser("plan", help="static RWA planning over a demand matrix")
    p_plan.add_argument("network")
    p_plan.add_argument(
        "--demands", default=None,
        help="JSON file: [{source, target, count}, ...]; default: uniform matrix",
    )
    p_plan.add_argument(
        "--gravity", type=int, default=None, metavar="CIRCUITS",
        help="generate a gravity-model matrix with ~CIRCUITS total circuits",
    )
    p_plan.add_argument(
        "--ordering",
        choices=["shortest-first", "longest-first", "given", "random"],
        default="longest-first",
    )
    p_plan.add_argument("--restarts", type=int, default=1)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.set_defaults(fn=_cmd_plan)

    p_exp = sub.add_parser(
        "experiments", help="regenerate the EXPERIMENTS.md measurements"
    )
    p_exp.add_argument("--scale", type=int, default=1, help="1 = quick, 2 = fuller")
    p_exp.add_argument(
        "--only", nargs="*", default=None, help="subset of experiment ids"
    )
    p_exp.add_argument("-o", "--output", default=None, help="write JSON here")
    p_exp.add_argument(
        "--markdown", action="store_true", help="render tables instead of JSON"
    )
    p_exp.set_defaults(fn=_cmd_experiments)

    p_dot = sub.add_parser("dot", help="Graphviz DOT export (paper figures)")
    p_dot.add_argument("network")
    p_dot.add_argument(
        "--figure", choices=["fig1", "fig2", "fig3", "gst"], default="fig1"
    )
    p_dot.add_argument("--node", default=None, help="node for fig3")
    p_dot.add_argument("--source", default=None, help="source for gst")
    p_dot.add_argument("--target", default=None, help="target for gst")
    p_dot.set_defaults(fn=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SemilightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
