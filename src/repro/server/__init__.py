"""Persistent router server: shared-memory CSR + a warm process pool.

The pieces (see docs/serving.md):

* :mod:`repro.server.protocol` — the length-prefixed binary frame format
  (``ROUTE``/``ROUTE_BATCH``/``PATCH``/``SNAPSHOT``/``STATS``/
  ``SHUTDOWN``) plus the wire encoding of semilightpaths.
* :mod:`repro.server.server` — :class:`RouterServer`: publishes ``G_all``
  once into a :class:`~repro.shortestpath.shared.SharedCSR` segment, owns
  a pool of warm worker processes attached zero-copy, applies ``PATCH``
  fault batches write-through under the seqlock epoch, detects and
  respawns crashed workers.
* :mod:`repro.server.client` — :class:`RouterClient`: a socket client
  whose ``route`` matches the in-process router's contract (returns a
  :class:`~repro.core.semilightpath.Semilightpath`, raises
  :class:`~repro.exceptions.NoPathError`) so it drops in as a service
  backend, and whose ``route_batch`` answers many pairs in one frame.
"""

from repro.server.client import RouterClient
from repro.server.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    Op,
    decode_frame,
    encode_frame,
    valid_ip,
    valid_port,
)
from repro.server.server import RouterServer

__all__ = [
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "Op",
    "RouterClient",
    "RouterServer",
    "decode_frame",
    "encode_frame",
    "valid_ip",
    "valid_port",
]
