"""Triangle counting by sorted-adjacency intersection.

TC is the paper's compute-bound outlier: edge-list scans dominate
(sequential, cache-friendly), random vtxProp accesses are few, and the
only atomic is a signed add into per-vertex counters — hence OMEGA's
limited speedup on it (Section X-A). We implement the standard
degree-ordered intersection algorithm: orient each undirected edge
from lower- to higher-rank endpoint and intersect out-adjacencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.intsort import unique_ids
from repro.algorithms.common import AlgorithmResult, make_engine, require_undirected
from repro.ligra.atomics import AtomicOp, scatter_atomic

__all__ = ["run_tc", "tc_reference"]


def run_tc(
    graph: CSRGraph,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
) -> AlgorithmResult:
    """Count triangles; returns the total and per-vertex counts."""
    require_undirected(graph, "TC")
    n = graph.num_vertices
    engine = make_engine(graph, num_cores, chunk_size, trace)
    counts = engine.alloc_prop("tri_count", np.int64)

    # Rank by (degree, id) and keep only low->high oriented arcs; each
    # triangle is then counted exactly once at its lowest-rank corner.
    deg = graph.out_degrees()
    rank = np.lexsort((np.arange(n), deg))
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[rank] = np.arange(n)

    offsets, targets = graph.out_offsets, graph.out_targets
    # Forward adjacency: neighbors with higher rank, sorted by id.
    fwd: list = []
    fwd_offsets = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        nbrs = targets[offsets[v] : offsets[v + 1]]
        higher = nbrs[rank_of[nbrs] > rank_of[v]]
        higher = unique_ids(higher, n)
        fwd.append(higher)
        fwd_offsets[v + 1] = fwd_offsets[v] + len(higher)

    total = 0
    tb = engine.trace_builder
    per_vertex = np.zeros(n, dtype=np.int64)
    for v in range(n):
        adj_v = fwd[v]
        if len(adj_v) == 0:
            continue
        core = engine.cores_for_positions(np.array([v]), n)[0]
        if tb.enabled:
            engine.record_offset_reads(core, np.array([v]))
            engine.record_adjacency_reads(
                core, np.arange(offsets[v], offsets[v + 1])
            )
        for w in adj_v:
            common = np.intersect1d(adj_v, fwd[w], assume_unique=True)
            found = len(common)
            if tb.enabled:
                engine.record_offset_reads(core, np.array([w]))
                engine.record_adjacency_reads(
                    core, np.arange(offsets[w], offsets[w + 1])
                )
            if found:
                total += found
                # Atomic per-corner count accumulation (the Table II
                # "signed add"); charged at the triangle corners.
                tri_vertices = np.concatenate(
                    [common, np.full(found, v), np.full(found, w)]
                ).astype(np.int64)
                scatter_atomic(
                    AtomicOp.SINT_ADD,
                    per_vertex,
                    tri_vertices,
                    np.ones(len(tri_vertices), dtype=np.int64),
                )
                if tb.enabled:
                    engine.record_prop_access(
                        core, counts, tri_vertices, write=True, atomic=True
                    )
    counts.values[:] = per_vertex
    engine.stats.iterations = 1
    return AlgorithmResult(
        name="tc",
        engine=engine,
        values={"total": np.int64(total), "per_vertex": per_vertex},
        iterations=1,
    )


def tc_reference(graph: CSRGraph) -> int:
    """Brute-force triangle count oracle (enumerate vertex triples of
    each edge's endpoint neighborhoods)."""
    n = graph.num_vertices
    nbr = [set(int(x) for x in graph.out_neighbors(v) if int(x) != v) for v in range(n)]
    total = 0
    for v in range(n):
        for w in nbr[v]:
            if w > v:
                for u in nbr[v] & nbr[w]:
                    if u > w:
                        total += 1
    return total
