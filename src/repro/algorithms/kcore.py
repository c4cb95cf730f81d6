"""k-Core: maximal subgraph of minimum degree >= k (peeling).

Iteratively removes vertices of degree < k, atomically decrementing
their neighbors' degrees (Table II: "signed add", low atomic fraction
because most rounds remove few vertices). ``run_kcore`` extracts one
k-core; ``run_coreness`` runs the full peeling decomposition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.intsort import unique_ids
from repro.algorithms.common import AlgorithmResult, make_engine, require_undirected
from repro.ligra.atomics import AtomicOp, scatter_atomic
from repro.ligra.vertex_subset import VertexSubset

__all__ = ["run_kcore", "run_coreness", "coreness_reference"]


def run_kcore(
    graph: CSRGraph,
    k: Optional[int] = None,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
) -> AlgorithmResult:
    """Compute membership of the k-core (``in_core`` boolean array).

    ``k`` defaults to the graph's mean degree, which makes the peeling
    phase touch a substantial fraction of the vertices (a degenerate
    ``k`` below the minimum degree would remove nothing and produce an
    empty trace).
    """
    require_undirected(graph, "KC")
    n = graph.num_vertices
    if k is None:
        k = max(2, int(graph.num_edges / n)) if n else 2
    if k < 0:
        raise SimulationError(f"k must be >= 0, got {k}")
    engine = make_engine(graph, num_cores, chunk_size, trace)
    degree = engine.alloc_prop("degree", np.int32)
    degree.values[:] = graph.out_degrees().astype(np.int32)
    alive = np.ones(n, dtype=bool)

    frontier = VertexSubset(n, dense=alive & (degree.values < k))
    rounds = 0
    while frontier:
        rounds += 1
        doomed = frontier.to_sparse()
        alive[doomed] = False

        def decrement(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            live = alive[dsts]
            d = dsts[live]
            if len(d) == 0:
                return d
            uniq = unique_ids(d, n)
            before = degree.values[uniq] >= k
            scatter_atomic(
                AtomicOp.SINT_ADD,
                degree.values,
                d,
                np.full(len(d), -1, dtype=np.int32),
            )
            # Newly sub-k vertices form the next peel round.
            newly = uniq[(degree.values[uniq] < k) & before]
            return newly

        frontier = engine.edge_map(
            frontier,
            decrement,
            src_props=[degree],
            dst_props=[degree],
            direction="out",
            output="auto",
        )
        engine.stats.iterations = rounds

    return AlgorithmResult(
        name="kcore",
        engine=engine,
        values={"in_core": alive.copy(), "k": np.int64(k)},
        iterations=rounds,
    )


def run_coreness(
    graph: CSRGraph,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
) -> AlgorithmResult:
    """Full coreness decomposition: per-vertex maximum k-core membership."""
    require_undirected(graph, "KC")
    n = graph.num_vertices
    engine = make_engine(graph, num_cores, chunk_size, trace)
    degree = engine.alloc_prop("degree", np.int32)
    degree.values[:] = graph.out_degrees().astype(np.int32)
    coreness = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    rounds = 0
    k = 0
    while alive.any():
        k += 1
        while True:
            doomed = np.flatnonzero(alive & (degree.values < k))
            if len(doomed) == 0:
                break
            rounds += 1
            coreness[doomed] = k - 1
            alive[doomed] = False
            frontier = VertexSubset(n, ids=doomed)

            def decrement(srcs, dsts, _weights) -> np.ndarray:
                if len(srcs) == 0:
                    return srcs
                d = dsts[alive[dsts]]
                if len(d):
                    scatter_atomic(
                        AtomicOp.SINT_ADD,
                        degree.values,
                        d,
                        np.full(len(d), -1, dtype=np.int32),
                    )
                return unique_ids(d, n)

            engine.edge_map(
                frontier,
                decrement,
                src_props=[degree],
                dst_props=[degree],
                direction="out",
                output="none",
            )
    engine.stats.iterations = rounds
    return AlgorithmResult(
        name="coreness",
        engine=engine,
        values={"coreness": coreness},
        iterations=rounds,
    )


def coreness_reference(graph: CSRGraph) -> np.ndarray:
    """Sequential peeling oracle for coreness."""
    n = graph.num_vertices
    deg = graph.out_degrees().astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    k = 0
    remaining = n
    while remaining:
        k += 1
        changed = True
        while changed:
            changed = False
            for v in np.flatnonzero(alive & (deg < k)):
                coreness[v] = k - 1
                alive[v] = False
                remaining -= 1
                changed = True
                for w in graph.out_neighbors(int(v)):
                    if alive[int(w)]:
                        deg[int(w)] -= 1
    return coreness
