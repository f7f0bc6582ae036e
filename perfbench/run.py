"""Run one benchmark workload, check its outputs, print its metrics.

Usage::

    python3 perfbench/run.py --workload served_steady --seed 1 --seconds 20 --trace 0

Workloads: ``served_steady``, ``served_churn``, ``provision_dynamic``
(see ``workloads.py`` for what each loads and why).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is a separate run with
timing wrappers installed in every process that reports the per-layer
metrics instead, and writes a report of where an op's time goes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the run's provenance.  Everything the run writes goes under
``.perfbench_runs/`` in the checkout.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

import workloads

INJECTIONS = {
    "cost": ("served_steady", "served_churn"),
    "hop": ("served_steady", "served_churn"),
    "flip": ("provision_dynamic",),
}


def provenance(args: argparse.Namespace, samples: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(workloads.ROOT))
    try:
        sha = subprocess.run(
            ["git", "-C", workloads.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(workloads.SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, workloads.SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "argv": [sys.executable] + sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        choices=sorted(INJECTIONS),
        help="plant one wrong answer before the checks (tests the checker)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject and args.workload not in INJECTIONS[args.inject]:
        parser.error(f"--inject {args.inject} applies to {INJECTIONS[args.inject]}")
    workloads.require_source()

    import checks
    import measure
    import spans

    runs = os.path.join(workloads.ROOT, ".perfbench_runs")
    run_dir = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_dir = os.path.join(run_dir, "spans") if args.trace else None
    tracer = spans.Tracer("loadgen") if args.trace else None
    if tracer is not None:
        tracer.enabled = False

    if args.workload == "provision_dynamic":
        import provision

        if tracer is not None:
            spans.install_provision(tracer)
        replay = checks.LiteralReplay(args.seed)
        observed = provision.run(args.seed, args.seconds, replay, tracer)
        if args.inject == "flip":
            checks.inject_flip(observed["outcomes"], observed["warmup"])
        problems = checks.check_provisioning(replay, observed["outcomes"])
        attempted = len(observed["ops"]) + observed["errors"]
        failed = observed["errors"] + len(problems)
    else:
        import served

        if tracer is not None:
            spans.install_loadgen(tracer)
        observed = served.run(
            args.workload, args.seed, args.seconds, run_dir, tracer, trace_dir
        )
        if args.inject == "cost":
            checks.inject_cost(observed["answers"])
        elif args.inject == "hop":
            checks.inject_hop(observed["answers"], workloads.K_WAVELENGTHS)
        problems = checks.check_served(
            observed["network"], observed["events"], observed["answers"], observed["patches"]
        )
        attempted = len(observed["ops"]) + observed["errors"] + observed["patches"]
        failed = (
            observed["errors"]
            + observed["patch_failures"]
            + observed["counters"]["respawns"]
            + len(problems)
        )

    e2e, samples = measure.end_to_end(
        observed, workloads.WORKLOADS[args.workload]["p99_windowed"]
    )
    result = {
        "provenance": provenance(args, samples),
        "end_to_end": e2e,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    if tracer is not None:
        import layers
        import report

        tracer.flush(trace_dir)
        documents = spans.load_spans(trace_dir)
        result["per_layer"], result["stages"] = layers.per_layer(
            args.workload, documents, observed
        )
        result["span_files"] = sorted(
            f"{doc['role']}:{doc['pid']}:{len(doc['spans'])}" for doc in documents
        )
        untraced = report.load_result(runs, args.workload, args.seed, 0)
        text = report.render(args.workload, result, untraced)
        name = f"report-{args.workload}-seed{args.seed}.md"
        with open(os.path.join(runs, name), "w") as handle:
            handle.write(text)
        print(text, file=sys.stderr)
        units = {name: unit for name, unit, _better in layers.METRICS}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in measure.END_TO_END
        }
    results = os.path.join(runs, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    for problem in problems[:5]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": result["provenance"]}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
