"""The traced-run report: where one op's time goes, and what tracing costs.

A traced run writes ``.perfbench_runs/report-<workload>-seed<N>.md``
itself.  Run this file to print the reports of every traced run on
record, each next to the untraced run of the same workload and seed::

    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import os

import workloads


def load_result(runs: str, workload: str, seed: int, trace: int) -> dict | None:
    path = os.path.join(runs, "results", f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def render(workload: str, traced: dict, untraced: dict | None) -> str:
    """Markdown report of one traced run."""
    spec = workloads.WORKLOADS[workload]
    seed = traced["provenance"]["seed"]
    lines = [
        f"# {workload}, seed {seed}",
        "",
        f"Why: {spec['why']}",
        "",
        f"Predicted dominant layers: {', '.join(spec['dominant'])}.",
        f"Predicted idle: {', '.join(spec['idle'])}.",
        "",
        "## Where one op's time goes (traced run, means in us)",
        "",
        "| stage | process | mean | p50 | p99 | count |",
        "|---|---|---:|---:|---:|---:|",
    ]

    def row(name, process, stage):
        cells = [f"{stage['mean']:.1f}"]
        for key in ("p50", "p99"):
            cells.append(f"{stage[key]:.1f}" if key in stage else "")
        cells.append(str(stage.get("count", "")))
        return f"| {name} | {process} | " + " | ".join(cells) + " |"

    name, process, total = traced["stages"]["total"]
    lines.append(row(f"**{name}**", process, total))
    for name, process, stage in traced["stages"]["stages"]:
        lines.append(row(name, process, stage))
    lines += [
        "",
        "The stage means add up to the total; the last row is the part no",
        "span covers.",
        "",
        "## Tracing overhead (traced minus untraced, same workload and seed)",
        "",
    ]
    if untraced is None:
        lines.append("No untraced run of this workload and seed on record.")
    else:
        lines += ["| metric | untraced | traced | traced - untraced |", "|---|---:|---:|---:|"]
        for metric, value in untraced["end_to_end"].items():
            other = traced["end_to_end"][metric]
            lines.append(f"| {metric} | {value:.4g} | {other:.4g} | {other - value:+.4g} |")
    lines += ["", "## Per-layer metrics", "", "| metric | value |", "|---|---:|"]
    for metric, value in traced["per_layer"].items():
        lines.append(f"| {metric} | {value:.4g} |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    runs = os.path.join(workloads.ROOT, ".perfbench_runs")
    results = os.path.join(runs, "results")
    if not os.path.isdir(results):
        print("no benchmark results on record")
        return 1
    for name in sorted(os.listdir(results)):
        if not name.endswith("-trace1.json"):
            continue
        with open(os.path.join(results, name)) as handle:
            traced = json.load(handle)
        workload = traced["provenance"]["workload"]
        seed = traced["provenance"]["seed"]
        print(render(workload, traced, load_result(runs, workload, seed, 0)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
