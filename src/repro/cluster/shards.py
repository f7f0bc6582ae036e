"""Shard/replica topology management for the serving tier.

A :class:`ShardManager` boots ``shards × replicas``
:class:`~repro.server.server.RouterServer` processes-worth of serving
capacity for **one** network: every shard serves the *full* network
(sharding partitions query load by source node, not the graph), and
each shard's replicas form a gossip full mesh so a fault ``PATCH``
accepted by any one of them floods to the rest (see
``docs/serving.md``).

Replica isolation is multi-host-style: every replica owns its **own**
shared segment.  The seqlock protocol makes the segment owner the only
writer, so replicas sharing one segment would need a single patch
authority anyway — separate segments keep the replica failure domains
honest (a replica dying cannot corrupt its peers' graph) and make
gossip the real consistency mechanism, exactly as it would be across
machines.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Hashable

from repro.cluster.ring import HashRing
from repro.server.server import RouterServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["ShardManager"]

NodeId = Hashable


class ShardManager:
    """Boot, wire, and tear down an N-shard × R-replica serving tier.

    Parameters
    ----------
    network:
        The network every replica serves.
    shards / replicas:
        Tier shape; both >= 1.  ``replicas=1`` degenerates to a plain
        sharded tier with no gossip.
    workers:
        Worker processes per replica server.
    vnodes:
        Virtual nodes per shard on the placement ring.

    The tier binds on unix-domain sockets (one temp dir per replica);
    ``shards × replicas × workers`` processes run after ``start()``.
    """

    def __init__(
        self,
        network: "WDMNetwork",
        *,
        shards: int = 2,
        replicas: int = 2,
        workers: int = 1,
        vnodes: int = 64,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._network = network
        self.num_shards = shards
        self.num_replicas = replicas
        self._workers = workers
        self.ring = HashRing(range(shards), vnodes=vnodes)
        #: ``servers[shard][replica]`` once started.
        self._servers: list[list[RouterServer]] = []
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ShardManager":
        """Boot every replica, then wire each shard's gossip full mesh."""
        if self._started:
            raise RuntimeError("tier already started")
        self._started = True
        try:
            for _shard in range(self.num_shards):
                row = []
                for _replica in range(self.num_replicas):
                    server = RouterServer(
                        self._network, uds="", workers=self._workers
                    )
                    server.start()
                    row.append(server)
                self._servers.append(row)
        except BaseException:
            self.close()
            raise
        # Peers can only be wired after start(): UDS paths are generated
        # per replica.  Full mesh within a shard; shards never gossip to
        # each other (each receives the PATCH from the frontend).
        for row in self._servers:
            for server in row:
                for peer in row:
                    if peer is not server:
                        server.add_peer(peer.address)
        return self

    def close(self) -> None:
        """Close every replica (idempotent); segments are unlinked."""
        if self._closed:
            return
        self._closed = True
        for row in self._servers:
            for server in row:
                server.close()

    def __enter__(self) -> "ShardManager":
        return self.start() if not self._started else self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- topology -------------------------------------------------------------

    def shard_for(self, source: NodeId) -> int:
        """The shard index serving queries whose source is *source*."""
        return self.ring.shard_for(source)

    def servers_of(self, shard: int) -> list[RouterServer]:
        return list(self._servers[shard])

    def replica_addresses(self, shard: int) -> list[Any]:
        """Wire addresses of shard *shard*'s replicas, replica order."""
        return [server.address for server in self._servers[shard]]

    def all_servers(self) -> list[RouterServer]:
        return [server for row in self._servers for server in row]

    def segment_names(self) -> list[str]:
        """Every replica's shared-segment name (leak audits)."""
        return [server.segment_name for row in self._servers for server in row]

    # -- convergence ----------------------------------------------------------

    def delta_epochs(self) -> list[list[int]]:
        """``[shard][replica]`` → applied fault-op count, read in-process."""
        return [
            [server._delta.delta_epoch for server in row]
            for row in self._servers
        ]

    def converged(self, expected_ops: int) -> bool:
        """True when every replica has applied exactly *expected_ops*
        fault operations — i.e. gossip has delivered every patch
        everywhere and no patch was double-applied."""
        return all(
            epoch == expected_ops for row in self.delta_epochs() for epoch in row
        )

    def wait_converged(
        self, expected_ops: int, timeout: float = 10.0
    ) -> bool:
        """Poll :meth:`converged` until true or *timeout* elapses.

        Gossip forwarding is synchronous with the PATCH acknowledgement,
        so under normal operation this returns on the first poll; the
        timeout guards against a replica wedged mid-crash.
        """
        deadline = time.monotonic() + timeout
        while True:
            if self.converged(expected_ops):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def __repr__(self) -> str:
        return (
            f"ShardManager(shards={self.num_shards}, "
            f"replicas={self.num_replicas}, started={self._started})"
        )
