"""Hot-path routing benchmark: overlay + flat kernel vs the seed path.

Standalone script (argparse, no pytest) so CI can run it as a smoke job::

    PYTHONPATH=src python benchmarks/bench_routing_hotpath.py --quick

It measures four things and writes ``BENCH_routing.json``:

* **Single-pair warm queries** — the seed configuration (per-query
  ``G_{s,t}`` rebuild over an addressable binary heap) against the
  overlay hot path on the ``flat`` kernel (heapq + scratch reuse) and
  the forest-batched mode (one exhausted run per source through
  :class:`BatchRouter`, lazily decoded).  Every mode's answers are
  checked hop-for-hop against the seed path.
* **All pairs** — the serial Corollary 1 sweep ``route_all_pairs``,
  plus what a server worker pays to get ``G_all``: attaching the
  shared-memory segment by name against pickling the graph by value.
* **Fault churn** — an alternating degrade/recover + query stream served
  by two epoch caches: one told ``invalidate()`` on every fault (every
  fault rebuilds ``G_all``) and one told which channel changed (CSR
  masking + warm-run repair).  Both sides answer the identical stream;
  answers are compared hop-for-hop and a sample is certificate-checked
  against the degraded network of the moment.
* **Result identity** — every timed query is cross-checked: exact cost
  equality and identical hop sequences between the seed and hot paths,
  and every all-pairs path equal to its single-pair answer.

Every in-process timed row records the timing thread's CPU time
(``time.thread_time()``, the ``cpu_*`` fields) next to its wall time, so
a loaded or 1-CPU host still yields attributable numbers.  The report
carries the ``git_sha`` of the checkout and the ``argv`` that wrote it.

``--churn-smoke`` runs only the churn scenario in a time-budgeted loop
(``--churn-seconds``, default 30) and exits nonzero on any
patched-vs-rebuilt mismatch — the CI guardrail for the delta layer.

The exit code reflects **correctness only**: mismatching results exit
nonzero, slow results never do (CI boxes are noisy; timings are data,
not assertions).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import sparse_wan  # noqa: E402

from repro.core.batch import BatchRouter  # noqa: E402
from repro.core.routing import LiangShenRouter  # noqa: E402
from repro.exceptions import NoPathError  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.faults.plan import FaultEvent  # noqa: E402
from repro.service.cache import EpochRouterCache  # noqa: E402
from repro.verify.certificate import check_certificate  # noqa: E402


def _try(router, s, t):
    try:
        return router.route(s, t)
    except NoPathError:
        return None


def _check_identity(name, kernel, pairs, reference, candidate, errors):
    """Hop-for-hop identity between two result streams (flat is the law)."""
    for (s, t), ref, got in zip(pairs, reference, candidate):
        if (ref is None) != (got is None):
            errors.append(f"{name}: {kernel}: reachability differs for {s}->{t}")
        elif ref is not None:
            ref_cost, ref_hops = ref
            got_cost, got_hops = got
            if got_cost != ref_cost:
                errors.append(
                    f"{name}: {kernel}: cost differs for {s}->{t}: "
                    f"{ref_cost!r} vs {got_cost!r}"
                )
            elif got_hops != ref_hops:
                errors.append(f"{name}: {kernel}: hop sequence differs for {s}->{t}")


def _timed(fn):
    """``(fn(), wall seconds, CPU seconds of this thread)``."""
    wall, cpu = time.perf_counter(), time.thread_time()
    result = fn()
    return result, time.perf_counter() - wall, time.thread_time() - cpu


def _git_sha() -> str | None:
    """HEAD of the checkout this script runs from (``None`` outside git)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _view(result):
    """(cost, hops) of a RouteResult / Semilightpath, or None."""
    if result is None:
        return None
    path = getattr(result, "path", result)
    return (path.total_cost, path.hops)


def bench_single_pair(net, name: str) -> tuple[dict, list[str]]:
    """Time the full query stream per serving mode against the seed path.

    The forest-batched answers must agree hop-for-hop with ``flat`` (and
    flat with the seed); any divergence makes the script exit nonzero.
    """
    nodes = net.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]

    seed_router = LiangShenRouter(net, heap="binary", overlay=False)
    flat_router = LiangShenRouter(net)  # overlay + flat
    flat_router.layered_graph()  # warm the shared G' before timing
    batch_router = BatchRouter(net)  # G_all built here, outside the timing

    def stream(router):
        return lambda: [_view(_try(router, s, t)) for s, t in pairs]

    seed_results, t_seed, c_seed = _timed(stream(seed_router))
    flat_results, t_flat, c_flat = _timed(stream(flat_router))
    # The batched mode serves the same stream source-major: one exhausted
    # kernel run per source, every answer a lazy decode off its forest.
    batched_results, t_batched, c_batched = _timed(stream(batch_router))

    errors: list[str] = []
    _check_identity(name, "overlay_flat", pairs, seed_results, flat_results, errors)
    _check_identity(name, "forest_batched", pairs, flat_results, batched_results, errors)

    us = 1e6 / len(pairs)
    return {
        "topology": name,
        "nodes": len(nodes),
        "wavelengths": net.num_wavelengths,
        "queries": len(pairs),
        "seed_rebuild_binary_seconds": t_seed,
        "overlay_flat_seconds": t_flat,
        "speedup": t_seed / t_flat if t_flat > 0 else float("inf"),
        "seed_us_per_query": t_seed * us,
        "hot_us_per_query": t_flat * us,
        "kernels": {
            "seed_rebuild_binary": {
                "us_per_query": t_seed * us,
                "cpu_us_per_query": c_seed * us,
            },
            "overlay_flat": {
                "us_per_query": t_flat * us,
                "cpu_us_per_query": c_flat * us,
                "speedup_vs_seed": t_seed / t_flat if t_flat > 0 else float("inf"),
            },
            "forest_batched": {
                "us_per_query": t_batched * us,
                "cpu_us_per_query": c_batched * us,
                "speedup_vs_seed": t_seed / t_batched
                if t_batched > 0
                else float("inf"),
                "forests": batch_router.cache_misses,
            },
        },
    }, errors


def bench_all_pairs(net, name: str) -> tuple[dict, list[str]]:
    """The serial all-pairs sweep, plus a server worker's startup cost.

    Server workers attach ``G_all`` by segment name instead of receiving
    it by value.  The asserted claim: attaching must cost < 10% of
    pickling ``G_all`` to a worker and back.  That ratio is
    machine-independent — it compares two costs measured on the same
    box — and a violation is a correctness-grade error, not a noisy
    timing.  Every all-pairs path must also equal its single-pair
    answer on the overlay.
    """
    import pickle

    from repro.shortestpath.shared import (
        attach_all_pairs_graph,
        share_all_pairs_graph,
    )

    router = LiangShenRouter(net)
    aux = router.all_pairs_graph()  # warm: the timed sweep reuses G_all

    serial, t_serial, c_serial = _timed(router.route_all_pairs)

    # What handing G_all to a worker by value would cost: the parent
    # pickles it and the child unpickles it — the round trip is the bill.
    # Best-of-5 for both costs: these are microsecond-to-millisecond
    # one-shots, so the minimum is the honest (noise-free) estimate.
    payload_bytes = len(pickle.dumps(aux))
    t_pickle_cost = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        pickle.loads(pickle.dumps(aux))
        t_pickle_cost = min(t_pickle_cost, time.perf_counter() - start)

    # What the shared path pays per worker: shm map + header parse +
    # metadata unpickle, independent of the CSR array sizes (the id
    # maps are built lazily, on the worker's first job).
    segment = share_all_pairs_graph(aux)
    try:
        t_attach_cost = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            attached = attach_all_pairs_graph(segment.name)
            t_attach_cost = min(t_attach_cost, time.perf_counter() - start)
            attached.shared_csr.close()
    finally:
        segment.unlink()

    errors: list[str] = []
    for (s, t), path in serial.paths.items():
        single = _view(_try(router, s, t))
        if single != (path.total_cost, path.hops):
            errors.append(f"{name}: all-pairs path differs from route for {s}->{t}")
    if t_attach_cost >= 0.10 * t_pickle_cost:
        errors.append(
            f"{name}: shared attach ({t_attach_cost * 1e3:.2f} ms) is not "
            f"< 10% of the per-worker pickle cost ({t_pickle_cost * 1e3:.2f} ms)"
        )

    return {
        "topology": name,
        "nodes": len(net.nodes()),
        "pairs_routed": len(serial.paths),
        "serial_seconds": t_serial,
        "serial_cpu_seconds": c_serial,
        "pickle_cost_seconds": t_pickle_cost,
        "pickle_payload_bytes": payload_bytes,
        "attach_cost_seconds": t_attach_cost,
        "attach_vs_pickle_ratio": (
            t_attach_cost / t_pickle_cost if t_pickle_cost > 0 else float("inf")
        ),
    }, errors


def _churn_schedule(net, events: int, queries_per_event: int):
    """Deterministic alternating degrade/recover stream with query pairs.

    Both cache configurations replay exactly this schedule, so their
    timings and answers are directly comparable.
    """
    channels = [
        (link.tail, link.head, w)
        for link in net.links()
        for w in sorted(link.costs)
    ]
    nodes = net.nodes()
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    schedule = []
    for i in range(events):
        channel = channels[(i * 7919) % len(channels)]
        for kind in ("channel_fail", "channel_recover"):
            queries = [
                pairs[(i * queries_per_event * 2 + j * 997) % len(pairs)]
                for j in range(queries_per_event)
            ]
            schedule.append((kind, channel, queries))
    return schedule


def _notify_invalidate(cache, kind, tail, head, w):
    """Full-rebuild arm: every fault is an arbitrary change."""
    cache.invalidate()


def _notify_channel(cache, kind, tail, head, w):
    """Patched arm: name the channel that failed or recovered."""
    if kind == "channel_fail":
        cache.mark_channel_degraded(tail, head, w)
    else:
        cache.mark_channel_recovered(tail, head, w)


def _run_churn(net, schedule, notify, certificate_every: int = 0):
    """Replay *schedule* through one cache, telling it of each fault via
    ``notify(cache, kind, tail, head, w)``.

    Returns the answers (for cross-checking), the cache counters, the
    churn's total and summed fault-to-first-answer times (each a
    ``(wall, cpu)`` pair), the number of sampled answers, and any
    certificate violations found on them.
    """
    injector = FaultInjector(net)
    cache = EpochRouterCache(injector.network_view)
    first = schedule[0][2][0]
    try:
        cache.route(*first)  # initial build is not churn; keep it untimed
    except NoPathError:
        pass
    answers = []
    errors: list[str] = []
    samples = []  # (step, s, t, path, view) checked after timing stops
    first_wall = first_cpu = 0.0
    start, start_cpu = time.perf_counter(), time.thread_time()
    for step, (kind, (tail, head, w), queries) in enumerate(schedule):
        fault_start, fault_cpu = time.perf_counter(), time.thread_time()
        injector.apply(FaultEvent(0.5, kind, tail=tail, head=head, wavelength=w))
        notify(cache, kind, tail, head, w)
        for j, (s, t) in enumerate(queries):
            try:
                path = cache.route(s, t)
            except NoPathError:
                path = None
            if j == 0:
                first_wall += time.perf_counter() - fault_start
                first_cpu += time.thread_time() - fault_cpu
            answers.append(path)
            if (
                certificate_every
                and path is not None
                and len(answers) % certificate_every == 0
            ):
                samples.append((step, s, t, path))
    total = (time.perf_counter() - start, time.thread_time() - start_cpu)
    # Eq.1 certificate checks run outside the timed loop so verification
    # cost never skews the serving comparison; each sampled answer is
    # checked against its own degraded view, reconstructed by replaying
    # the schedule prefix on a fresh injector.
    for step, s, t, path in samples:
        replay = FaultInjector(net)
        for kind, (tail, head, w), _ in schedule[: step + 1]:
            replay.apply(FaultEvent(0.5, kind, tail=tail, head=head, wavelength=w))
        cert = check_certificate(replay.network_view(), path, s, t)
        if not cert.ok:
            errors.append(
                f"churn certificate violation at step {step} "
                f"{s}->{t}: " + "; ".join(cert.violations)
            )
    first = (first_wall, first_cpu)
    return answers, cache.counters(), total, first, len(samples), errors


def bench_fault_churn(
    net, name: str, events: int = 25, queries_per_event: int = 3
) -> tuple[dict, list[str]]:
    """Full-invalidation vs delta-patched serving on one churn stream."""
    schedule = _churn_schedule(net, events, queries_per_event)
    full_answers, full_counters, full_time, full_first, _, errs_full = _run_churn(
        net, schedule, _notify_invalidate
    )
    (
        delta_answers,
        delta_counters,
        delta_time,
        delta_first,
        certs,
        errs_delta,
    ) = _run_churn(net, schedule, _notify_channel, certificate_every=5)
    (t_full, c_full), (t_full_first, c_full_first) = full_time, full_first
    (t_delta, c_delta), (t_delta_first, c_delta_first) = delta_time, delta_first

    errors = errs_full + errs_delta
    for i, (full, delta) in enumerate(zip(full_answers, delta_answers)):
        if (full is None) != (delta is None):
            errors.append(f"{name}: churn reachability differs at answer {i}")
        elif full is not None and (
            full.hops != delta.hops or full.total_cost != delta.total_cost
        ):
            errors.append(f"{name}: churn answer {i} differs patched vs rebuilt")

    fault_count = len(schedule)
    return {
        "topology": name,
        "nodes": len(net.nodes()),
        "wavelengths": net.num_wavelengths,
        "cpu_count": os.cpu_count(),
        "fault_events": fault_count,
        "queries": len(full_answers),
        "full_invalidation_seconds": t_full,
        "full_invalidation_cpu_seconds": c_full,
        "delta_seconds": t_delta,
        "delta_cpu_seconds": c_delta,
        "churn_speedup": t_full / t_delta if t_delta > 0 else float("inf"),
        "full_fault_to_answer_us": t_full_first / fault_count * 1e6,
        "full_fault_to_answer_cpu_us": c_full_first / fault_count * 1e6,
        "delta_fault_to_answer_us": t_delta_first / fault_count * 1e6,
        "delta_fault_to_answer_cpu_us": c_delta_first / fault_count * 1e6,
        "fault_to_answer_speedup": (
            t_full_first / t_delta_first if t_delta_first > 0 else float("inf")
        ),
        "full_rebuilds": full_counters["rebuilds"],
        "delta_rebuilds": delta_counters["rebuilds"],
        "delta_patches": delta_counters["patches"],
        "delta_tree_patches": delta_counters["tree_patches"],
        "certificates_checked": certs,
    }, errors


def _print_churn_row(row: dict) -> None:
    print(
        f"{row['topology']}: churn {row['fault_events']} faults / "
        f"{row['queries']} queries  "
        f"full {row['full_invalidation_seconds'] * 1e3:8.1f} ms  "
        f"delta {row['delta_seconds'] * 1e3:8.1f} ms  "
        f"({row['churn_speedup']:.1f}x; fault->answer "
        f"{row['fault_to_answer_speedup']:.1f}x; "
        f"{row['delta_patches']} patches vs {row['full_rebuilds']} rebuilds; "
        f"{row['certificates_checked']} certs ok)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small topologies only (CI smoke mode)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_routing.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--churn-smoke",
        action="store_true",
        help="CI mode: loop only the fault-churn scenario for "
        "--churn-seconds, failing on any patched-vs-rebuilt mismatch",
    )
    parser.add_argument(
        "--churn-seconds",
        type=float,
        default=30.0,
        help="time budget for --churn-smoke (default 30)",
    )
    args = parser.parse_args(argv)

    if args.churn_smoke:
        return churn_smoke(args.churn_seconds)

    if args.quick:
        single_sizes = [24, 32]
        all_pairs_sizes = [32]
        churn_sizes = [32]
    else:
        single_sizes = [32, 48, 64]
        all_pairs_sizes = [48, 64]
        churn_sizes = [48, 64]

    report = {
        "git_sha": _git_sha(),
        "argv": sys.argv if argv is None else [sys.argv[0], *argv],
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "quick": args.quick,
        "single_pair": [],
        "all_pairs": [],
        "fault_churn": [],
    }
    errors: list[str] = []

    for n in single_sizes:
        name = f"sparse_wan_n{n}"
        row, errs = bench_single_pair(sparse_wan(n, seed=n), name)
        report["single_pair"].append(row)
        errors.extend(errs)
        kernels = row["kernels"]
        print(
            f"{name}: {row['queries']} warm queries  "
            f"seed {row['seed_us_per_query']:8.1f} us/q  "
            f"flat {kernels['overlay_flat']['us_per_query']:8.1f} us/q  "
            f"batched {kernels['forest_batched']['us_per_query']:8.1f} us/q  "
            f"(best {max(k['speedup_vs_seed'] for k in kernels.values() if 'speedup_vs_seed' in k):.1f}x)"
        )

    for n in all_pairs_sizes:
        name = f"sparse_wan_n{n}"
        row, errs = bench_all_pairs(sparse_wan(n, seed=n), name)
        report["all_pairs"].append(row)
        errors.extend(errs)
        print(
            f"{name}: all-pairs serial {row['serial_seconds'] * 1e3:8.1f} ms  "
            f"(attach {row['attach_cost_seconds'] * 1e3:.2f} ms vs "
            f"pickle {row['pickle_cost_seconds'] * 1e3:.2f} ms per worker)"
        )

    for n in churn_sizes:
        name = f"sparse_wan_n{n}"
        row, errs = bench_fault_churn(sparse_wan(n, seed=n), name)
        report["fault_churn"].append(row)
        errors.extend(errs)
        _print_churn_row(row)

    report["verified"] = not errors
    report["errors"] = errors
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if errors:
        for line in errors:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 1
    print(
        "result identity verified: seed == overlay+flat, "
        "all-pairs == single-pair, patched == rebuilt"
    )
    return 0


def churn_smoke(budget: float) -> int:
    """Time-budgeted churn loop: correctness gate only, no report file."""
    deadline = time.perf_counter() + budget
    rounds = 0
    while time.perf_counter() < deadline:
        n = (24, 32)[rounds % 2]
        net = sparse_wan(n, seed=n + rounds)
        row, errors = bench_fault_churn(net, f"sparse_wan_n{n}_r{rounds}")
        _print_churn_row(row)
        if errors:
            for line in errors:
                print(f"MISMATCH: {line}", file=sys.stderr)
            return 1
        rounds += 1
    print(f"churn smoke: {rounds} round(s), patched == rebuilt throughout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
