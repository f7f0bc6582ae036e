"""Process-parallel all-pairs routing (Corollary 1's embarrassing parallelism).

Corollary 1 answers all ``n(n-1)`` ordered pairs with ``n`` independent
shortest-path-tree runs over one shared ``G_all``.  The runs share no
mutable state, so they partition perfectly across OS processes — the only
engineering problem is getting ``G_all`` into the workers without paying
a per-task serialization bill.

:func:`route_all_pairs_parallel` publishes the CSR arrays once into a
:class:`~repro.shortestpath.shared.SharedCSR` segment and each worker
*attaches* through the pool initializer — a header parse plus one small
metadata unpickle, independent of graph size.  No worker ever pickles or
copies the arrays, under any start method; the segment is unlinked when
the pool finishes.  When the platform has no usable shared memory the
run goes serial in this process instead.

Sources are grouped into contiguous chunks (several per worker, for load
balance against uneven tree sizes) and each worker returns its decoded
trees plus the per-run work counters; the parent merges chunks in source
order, so the resulting :class:`~repro.core.routing.AllPairsResult` is
identical — same paths, same dict iteration order, same aggregated
``QueryStats`` — to a serial :meth:`LiangShenRouter.route_all_pairs` run.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Hashable

from repro.core.auxiliary import AllPairsGraph, build_all_pairs_graph
from repro.core.routing import AllPairsResult, merge_all_pairs, run_trees
from repro.shortestpath.flat import ScratchBuffers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import WDMNetwork

__all__ = ["route_all_pairs_parallel"]

NodeId = Hashable

#: Worker-side shared state, installed by the pool initializer.
_SHARED: dict[str, object] = {}


def _worker_init_shared(payload: tuple[str, str, object]) -> None:
    """Pool initializer: attach the shared ``G_all`` segment by name.

    The payload carries only the segment *name* — deliberately, even
    under fork (where the worker could inherit the parent's handle), so
    every worker exercises the same zero-copy attach that spawned
    workers and the router server's pool rely on.
    """
    from repro.shortestpath.shared import attach_all_pairs_graph

    segment, heap, fault_hook = payload
    _SHARED["aux"] = attach_all_pairs_graph(segment)
    _SHARED["heap"] = heap
    _SHARED["fault_hook"] = fault_hook


def _route_chunk(job: tuple[int, list[NodeId]]) -> tuple:
    """Run one tree per source in the chunk against the shared ``G_all``."""
    index, sources = job
    aux: AllPairsGraph = _SHARED["aux"]  # type: ignore[assignment]
    fault_hook = _SHARED["fault_hook"]
    if fault_hook is not None:
        fault_hook(index)  # chaos layer: may raise inside this worker
    # Scratch is reused across this worker's chunks; kernels that manage
    # their own per-query state (the addressable heaps) simply ignore it.
    scratch = _SHARED.get("scratch")
    if scratch is None:
        scratch = _SHARED["scratch"] = ScratchBuffers(aux.graph.num_nodes)
    return run_trees(aux, sources, _SHARED["heap"], scratch)


def _chunk(sources: list[NodeId], num_chunks: int) -> list[list[NodeId]]:
    """Split *sources* into up to *num_chunks* contiguous, balanced chunks."""
    num_chunks = max(1, min(num_chunks, len(sources)))
    size, extra = divmod(len(sources), num_chunks)
    chunks: list[list[NodeId]] = []
    start = 0
    for i in range(num_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(sources[start:end])
        start = end
    return chunks


def route_all_pairs_parallel(
    network: "WDMNetwork",
    workers: int,
    heap: str = "flat",
    aux: AllPairsGraph | None = None,
    chunks_per_worker: int = 4,
    fault_hook=None,
) -> AllPairsResult:
    """Corollary 1 with the ``n`` tree runs fanned across a process pool.

    Parameters
    ----------
    network:
        The network to route on (must match *aux* when one is given).
    workers:
        Process count.  ``1`` runs serially in this process (no pool), as
        does a run whose ``G_all`` cannot be published to shared memory.
    heap:
        Kernel per tree run, as in :class:`~repro.core.routing.LiangShenRouter`.
        Addressable-heap *factories* cannot cross a process boundary; pass
        a heap name.
    aux:
        A prebuilt ``G_all`` to share (e.g. a router's cached one);
        built here when omitted.
    chunks_per_worker:
        Oversubscription factor for load balancing — tree runs on
        high-degree sources settle more nodes than leaf sources.
    fault_hook:
        Optional picklable ``hook(chunk_index)`` called at the start of
        every worker chunk — the chaos layer's worker-crash injection
        point (e.g. :class:`repro.faults.injector.ChunkCrash`).  Applied
        only when a pool runs; a hook that raises surfaces the exception
        through the pool exactly like a real worker crash.

    Returns
    -------
    AllPairsResult
        Identical paths and aggregated stats to the serial run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(heap, str):
        raise TypeError("parallel all-pairs requires a heap name, not a factory")
    if aux is None:
        aux = build_all_pairs_graph(network)
    sources = network.nodes()

    segment = None
    if workers > 1 and len(sources) > 1:
        try:
            from repro.shortestpath.shared import share_all_pairs_graph

            segment = share_all_pairs_graph(aux)
        except Exception:
            segment = None  # no /dev/shm (or equivalent): serial below
    if segment is None:
        scratch = ScratchBuffers(aux.graph.num_nodes)
        return merge_all_pairs(aux.sizes, [run_trees(aux, sources, heap, scratch)])

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    jobs = list(enumerate(_chunk(sources, workers * chunks_per_worker)))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init_shared,
            initargs=((segment.name, heap, fault_hook),),
        ) as pool:
            chunks = list(pool.map(_route_chunk, jobs))
    finally:
        segment.unlink()
    return merge_all_pairs(aux.sizes, chunks)
