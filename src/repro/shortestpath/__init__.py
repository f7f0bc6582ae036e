"""Shortest-path substrate: graphs, addressable heaps, and SSSP algorithms.

This subpackage is the algorithmic foundation beneath the semilightpath
routers.  It provides:

* :class:`~repro.shortestpath.structures.StaticGraph` — a compact
  adjacency-list (CSR) digraph over dense integer node ids,
* three addressable priority queues with ``decrease_key`` —
  :class:`~repro.shortestpath.heaps.BinaryHeap`,
  :class:`~repro.shortestpath.heaps.PairingHeap`, and
  :class:`~repro.shortestpath.fibonacci.FibonacciHeap` (the structure
  Theorem 1 of the paper cites for its ``O(m' + n' log n')`` bound),
* Dijkstra with a pluggable heap and early target stop,
* a flat-array Dijkstra fast path (:mod:`repro.shortestpath.flat`) —
  heapq with lazy deletion over the CSR arrays, with scratch buffers
  reusable across queries (the routers' default kernel), and
* Bellman–Ford (both classic synchronous rounds and SPFA queue forms).

Kernel table
------------
Every single-source kernel the routers can dispatch to is listed in one
name -> kernel table: ``"flat"`` (the serving kernel) and the Theorem-1
addressable-heap references ``"binary"``, ``"pairing"`` and
``"fibonacci"``.  All share one uniform signature::

    kernel(graph, sources, target=None, targets=None, scratch=None)
        -> DijkstraResult

and the ``(dist, node)`` tie-break contract — identical parent forests,
hence identical decoded hop sequences.  Routers resolve a ``heap=`` value
once via :func:`resolve_kernel` instead of string-matching at every call
site.  A callable ``heap`` (an addressable-heap factory) is wrapped into
the same uniform signature.
"""

from typing import Callable

from repro.shortestpath.bellman_ford import bellman_ford, spfa
from repro.shortestpath.delta import DeltaOverlay, MaterializedOverlay
from repro.shortestpath.dijkstra import DijkstraResult, dijkstra
from repro.shortestpath.fibonacci import FibonacciHeap
from repro.shortestpath.flat import (
    ScratchBuffers,
    ScratchPool,
    WarmRun,
    flat_dijkstra,
)
from repro.shortestpath.heaps import BinaryHeap, PairingHeap
from repro.shortestpath.paths import ShortestPathTree, reconstruct_path
from repro.shortestpath.shared import (
    SharedCSR,
    attach_all_pairs_graph,
    leaked_segments,
    share_all_pairs_graph,
)
from repro.shortestpath.structures import GraphBuilder, StaticGraph

_KernelFn = Callable[..., DijkstraResult]


def _addressable_kernel(heap) -> _KernelFn:
    """Wrap an addressable-heap name/factory into the uniform signature.

    Addressable heaps allocate their own per-query state, so the
    *scratch* argument is accepted and ignored.
    """

    def kernel(graph, sources, target=None, targets=None, scratch=None):
        return dijkstra(graph, sources, target=target, targets=targets, heap=heap)

    return kernel


_KERNELS: dict[str, _KernelFn] = {
    "flat": flat_dijkstra,
    "binary": _addressable_kernel("binary"),
    "pairing": _addressable_kernel("pairing"),
    "fibonacci": _addressable_kernel("fibonacci"),
}


def resolve_kernel(heap: "str | Callable") -> _KernelFn:
    """Resolve a router ``heap=`` value to a kernel callable.

    Strings look up the kernel table; a callable is treated as an
    addressable-heap factory and wrapped.  Unknown names raise
    ``ValueError`` eagerly so a typo fails at router construction, not
    mid-query.
    """
    if callable(heap):
        return _addressable_kernel(heap)
    try:
        return _KERNELS[heap]
    except KeyError:
        known = ", ".join(sorted(_KERNELS))
        raise ValueError(f"unknown kernel {heap!r}; known: {known}") from None


__all__ = [
    "BinaryHeap",
    "PairingHeap",
    "FibonacciHeap",
    "StaticGraph",
    "GraphBuilder",
    "dijkstra",
    "DijkstraResult",
    "flat_dijkstra",
    "resolve_kernel",
    "ScratchBuffers",
    "ScratchPool",
    "WarmRun",
    "DeltaOverlay",
    "MaterializedOverlay",
    "SharedCSR",
    "share_all_pairs_graph",
    "attach_all_pairs_graph",
    "leaked_segments",
    "bellman_ford",
    "spfa",
    "reconstruct_path",
    "ShortestPathTree",
]
