"""How the end-to-end numbers are measured.

CPU time and proportional memory come from ``/proc``.  The timed phase
is cut into ``WINDOWS`` equal windows; each op is filed under the window
it completed in, and CPU time is sampled at both ends of every window.
Rates, medians and CPU per op are the median over the windows, so
interference from other tenants of the machine that lasts less than
half the windows does not move them.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array

WINDOWS = 5

#: ``(name, unit)`` of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("pss_mb", "MiB"),
]


def cpu_seconds(pid: int) -> float:
    """CPU seconds every live thread of *pid* has run so far.

    Another process is read from the per-thread ``schedstat`` files
    (nanoseconds; ``/proc/<pid>/stat`` counts in 10 ms ticks, too coarse
    for a window of a few seconds).
    """
    if pid == os.getpid():
        return time.process_time()
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            continue  # the thread ended after the listing
    return total / 1e9


def pss_mib(pid: int) -> float:
    """Proportional set size of *pid* in MiB."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line in /proc/{pid}/smaps_rollup")


class OpLog:
    """Completion time and latency of every op, in nanoseconds.

    Packed in arrays (16 bytes an op), so that the load generator's
    memory, which the ``pss_mb`` metric includes, hardly depends on how
    many ops a run completes.
    """

    def __init__(self) -> None:
        self.ends = array("q")
        self.latencies = array("q")

    def record(self, start: int, end: int) -> None:
        self.ends.append(end)
        self.latencies.append(end - start)

    def extend(self, other: "OpLog") -> None:
        self.ends.extend(other.ends)
        self.latencies.extend(other.latencies)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        return zip(self.ends, self.latencies)


class Timeline:
    """The windows of a timed phase, each with its start and end time and
    each process class's CPU seconds sampled at both ends.

    Windows may follow each other directly or leave untimed gaps between
    them (where a run checks outputs); only time inside a window counts.
    """

    def __init__(self, pids: dict[str, list[int]], seconds: float) -> None:
        self.pids = pids
        self.window_ns = int(seconds * 1e9 / WINDOWS)
        #: ``[start_ns, end_ns, cpu_at_start, cpu_at_end]`` per window.
        self.windows: list[list] = []

    def _cpu(self) -> dict[str, float]:
        return {name: sum(cpu_seconds(pid) for pid in group) for name, group in self.pids.items()}

    def open(self) -> None:
        self.windows.append([time.monotonic_ns(), None, self._cpu(), None])

    def close(self) -> None:
        window = self.windows[-1]
        window[3] = self._cpu()
        window[1] = time.monotonic_ns()

    def due_ns(self) -> int:
        """When the open window is due to close."""
        return self.windows[-1][0] + self.window_ns

    @property
    def done(self) -> bool:
        return len(self.windows) == WINDOWS and self.windows[-1][1] is not None

    def cpu_s(self) -> dict[str, float]:
        """CPU seconds per process class inside the windows."""
        return {
            name: sum(window[3][name] - window[2][name] for window in self.windows)
            for name in self.pids
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``method="inclusive"``)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (len(sorted_values) - 1) * q
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def end_to_end(observed: dict, p99_windowed: bool) -> tuple[dict, dict]:
    """The six end-to-end metrics of a run and the sample counts behind them.

    *observed* holds ``ops`` (an :class:`OpLog` of the completed ops),
    the ``timeline``, ``setup_s`` (one value per set-up) and ``pss_mb``.
    With *p99_windowed* the 99th percentile is the median of the windows'
    own; otherwise (too few ops per window for ten beyond the 99th
    percentile) it is taken over every op of the windows.
    """
    windows = observed["timeline"].windows
    buckets: list[list[float]] = [[] for _ in windows]
    for end, latency in observed["ops"]:
        for index, (begin, finish, _cpu_start, _cpu_end) in enumerate(windows):
            if begin <= end < finish:
                buckets[index].append(latency / 1e6)
                break
    rates, p50s, p99s, cpus = [], [], [], []
    for index, latencies in enumerate(buckets):
        if not latencies:
            raise RuntimeError(f"no op completed in window {index}")
        latencies.sort()
        begin, finish, cpu_start, cpu_end = windows[index]
        rates.append(len(latencies) * 1e9 / (finish - begin))
        p50s.append(_percentile(latencies, 0.50))
        p99s.append(_percentile(latencies, 0.99))
        cpu = sum(cpu_end.values()) - sum(cpu_start.values())
        cpus.append(1000.0 * cpu / len(latencies))
    every = sorted(x for latencies in buckets for x in latencies)
    metrics = {
        "setup_s": statistics.median(observed["setup_s"]),
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(p50s),
        "op_p99_ms": statistics.median(p99s) if p99_windowed else _percentile(every, 0.99),
        "cpu_ms_per_op": statistics.median(cpus),
        "pss_mb": observed["pss_mb"],
    }
    samples = {
        "setups": len(observed["setup_s"]),
        "windows": len(buckets),
        "ops_per_window": [len(latencies) for latencies in buckets],
        "op_p99_ms": "median of window p99s" if p99_windowed else "p99 of all ops",
        "beyond_p99": (
            min(len(b) for b in buckets) // 100 if p99_windowed else len(every) // 100
        ),
    }
    return metrics, samples
