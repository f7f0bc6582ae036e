"""Query workloads for the sharded tier.

:func:`all_pairs_workload` is the query mix the tier soak
(:class:`~repro.cluster.chaos.ClusterSoak`) drives through the frontend
and samples its verification probes from.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["all_pairs_workload"]

NodeId = Hashable


def all_pairs_workload(
    network: "WDMNetwork", seed: int = 0
) -> list[tuple[NodeId, NodeId]]:
    """Every ordered pair of distinct nodes, deterministically shuffled.

    The shuffle interleaves sources so consecutive batches spread across
    shards instead of hammering one source's shard at a time.
    """
    nodes = list(network.nodes())
    pairs = [(s, t) for s in nodes for t in nodes if s != t]
    random.Random(seed).shuffle(pairs)
    return pairs
