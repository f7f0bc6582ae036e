"""The served workloads' tier, in a process of its own.

Usage (started by the load generator, not by hand)::

    python3 perfbench/tier.py [--trace-dir DIR]

Boots a 2-shard x 2-replica ``ShardManager`` (1 worker per replica) on
the benchmark's network and prints one JSON line: this process's pid, every
replica's address and every worker's pid.  It serves until a ``stop``
line or end of file on standard input, then closes the tier (workers
exit, segments are unlinked), writes its spans when tracing, and prints
``closed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    workloads.require_source()

    from repro.cluster.shards import ShardManager

    tracer = None
    if args.trace_dir:
        import spans

        tracer = spans.Tracer("tier")
        spans.install_tier(tracer, args.trace_dir)

    network = workloads.sparse_wan()
    manager = ShardManager(
        network,
        shards=workloads.TIER_SHARDS,
        replicas=workloads.TIER_REPLICAS,
        workers=workloads.TIER_WORKERS,
    )
    try:
        manager.start()
        print(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "addresses": [
                        manager.replica_addresses(shard)
                        for shard in range(manager.num_shards)
                    ],
                    "workers": [
                        pid
                        for server in manager.all_servers()
                        for pid in server.worker_pids()
                    ],
                }
            ),
            flush=True,
        )
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        manager.close()
    if tracer is not None:
        tracer.flush(args.trace_dir)
    print("closed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
