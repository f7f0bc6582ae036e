"""The benchmark's workloads: their inputs, why each exists, and the
layers each is predicted to load.

Every workload runs on one network of the paper's sparse-WAN regime
(n = 64 nodes, degree <= 4, m = O(n), k = ceil(log2 n) = 6
wavelengths).  The other inputs derive from the single ``--seed``: the
request shuffle, the fault plan and the traffic trace each take their
own sub-seed, so one seed always reproduces one set of inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero.

    The benchmark measures the program in the checkout it runs from; it
    must never fall back to some other installed copy of ``repro``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


N_NODES = 64
K_WAVELENGTHS = max(1, math.ceil(math.log2(N_NODES)))
TIER_SHARDS = 2
TIER_REPLICAS = 2
TIER_WORKERS = 1
#: Closed-loop callers; equals the CPU count of the machine the figures
#: were tuned on, so at most 2 requests are ever in flight.
CALLERS = 2
#: served_churn: caller 0 sends one patch after every this many of its
#: own requests (about 32 requests tier-wide between patches), few
#: enough that most workers see a source for the first time in the new
#: epoch and must rebuild its forest.
PATCH_EVERY = 16
#: Fault-plan size: fail/recover pairs, cycled when a run uses them all.
PLAN_FAULTS = 120
#: provision_dynamic offered load (arrival rate x mean holding).
ERLANGS = 60.0
MEAN_HOLDING = 1.0
#: Warm-up arrivals before timing: four mean holding times at 60
#: arrivals per unit, enough for occupancy to reach steady state.
WARMUP_ARRIVALS = 240
#: Set-ups per untraced run; set-up time is their median.
SETUPS = 3


WORKLOADS = {
    "served_steady": {
        "why": (
            "After a warm pass no request routes: each one measures only "
            "per-request overhead (encode, socket, dispatch, queue hop, "
            "reply, decode, ring placement) of the 2x2 tier."
        ),
        "dominant": [
            "cluster.frontend",
            "server.protocol",
            "server.client",
            "server.server (dispatch, queue hops)",
        ],
        "idle": ["core.forest builds", "shortestpath.flat", "shortestpath.delta"],
        "p99_windowed": True,
    },
    "served_churn": {
        "why": (
            "Patches bump every replica's epoch and drop worker forests, so "
            "requests re-run the exhaustive flat kernel on G_all and decode "
            "again: the write-beside-read use of the tier."
        ),
        "dominant": [
            "shortestpath.flat (exhaustive)",
            "core.forest (builds, decodes)",
            "shortestpath.delta",
            "server.server gossip",
        ],
        "idle": ["wdm", "core.auxiliary build_layered_graph"],
        "p99_windowed": True,
    },
    "provision_dynamic": {
        "why": (
            "The paper's on-line admission at 60 Erlangs: every arrival "
            "rebuilds the residual network and G' and runs one "
            "early-stopping search."
        ),
        "dominant": [
            "core.auxiliary build_layered_graph",
            "wdm.provisioning residual_network",
            "shortestpath.flat (early stop)",
        ],
        "idle": ["server", "cluster", "core.forest", "shortestpath.delta"],
        # About 85 admissions/s: a window holds too few for a p99.
        "p99_windowed": False,
    },
}


def subseed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input stream of one benchmark seed."""
    digest = hashlib.blake2b(f"{seed}/{tag}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def sparse_wan():
    """The paper-regime network every workload runs on (n=64, d<=4, k=6).

    The instance ``sparse_wan(64, 6)`` in ``benchmarks/conftest.py``
    builds by default, repeated here so that an edit to the test helpers
    cannot silently change the benchmark's inputs.  The topology does not
    vary with the seed: between seed-drawn 64-node networks one admission
    cost up to 1.6 times as much (median 7.9 to 12.6 ms at 60 Erlangs),
    a spread wider than any regression bound the benchmark could keep.
    """
    from repro.core.conversion import FixedCostConversion
    from repro.topology.generators import degree_bounded_network
    from repro.topology.wavelength_assign import random_wavelengths

    return degree_bounded_network(
        N_NODES,
        K_WAVELENGTHS,
        max_degree=4,
        seed=0,
        wavelength_policy=random_wavelengths(K_WAVELENGTHS, availability=0.6),
        conversion=FixedCostConversion(0.5),
    )
