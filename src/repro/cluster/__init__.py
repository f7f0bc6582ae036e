"""The sharded, replicated serving tier.

Composition, bottom-up (see ``docs/serving.md`` → "Sharded tier"):

* :class:`~repro.cluster.ring.HashRing` — consistent-hash placement of
  query load (by source node) across shards;
* :class:`~repro.cluster.shards.ShardManager` — boots N shards × R
  replicas of :class:`~repro.server.server.RouterServer` and wires each
  shard's gossip full mesh;
* :class:`~repro.cluster.frontend.FrontendRouter` — the client:
  placement, replica failover, per-replica circuit breakers, admission
  control, load shedding;
* :class:`~repro.cluster.chaos.ClusterSoak` — the fault-storm soak with
  epoch-indexed exact oracles behind ``repro chaos --cluster``.

The tier is timed by the repository benchmark (``perfbench/``, workload
``served_churn``), not from here.
"""

from repro.cluster.chaos import ClusterSoak, ClusterSoakReport, event_to_patch_ops
from repro.cluster.frontend import FrontendRouter
from repro.cluster.loadgen import all_pairs_workload
from repro.cluster.ring import HashRing, stable_hash64
from repro.cluster.shards import ShardManager

__all__ = [
    "ClusterSoak",
    "ClusterSoakReport",
    "FrontendRouter",
    "HashRing",
    "ShardManager",
    "all_pairs_workload",
    "event_to_patch_ops",
    "stable_hash64",
]
