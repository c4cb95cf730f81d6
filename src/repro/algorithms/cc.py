"""Connected components by label propagation (Ligra's CC).

Every vertex starts labeled with its own id; each round, active
vertices push their label to neighbors, who atomically take the
unsigned minimum (Table II: "unsigned min", high atomic and random
fractions, two 4-byte vtxProp structures — IDs and prevIDs). Runs on
undirected graphs, per the paper's setup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.intsort import unique_ids
from repro.algorithms.common import AlgorithmResult, make_engine, require_undirected
from repro.ligra.atomics import AtomicOp, scatter_atomic
from repro.ligra.vertex_subset import VertexSubset

__all__ = ["run_cc", "cc_reference"]


def run_cc(
    graph: CSRGraph,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
) -> AlgorithmResult:
    """Label vertices by connected component (minimum reachable id)."""
    require_undirected(graph, "CC")
    n = graph.num_vertices
    engine = make_engine(graph, num_cores, chunk_size, trace)

    ids = engine.alloc_prop("ids", np.uint32)
    prev_ids = engine.alloc_prop("prev_ids", np.uint32)
    ids.values[:] = np.arange(n, dtype=np.uint32)
    prev_ids.values[:] = ids.values

    frontier = VertexSubset.full(n)
    rounds = 0
    while frontier:
        rounds += 1

        def propagate(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            return scatter_atomic(
                AtomicOp.UINT_MIN, ids.values, dsts, prev_ids.values[srcs]
            )

        frontier = engine.edge_map(
            frontier,
            propagate,
            src_props=[prev_ids],
            dst_props=[ids],
            direction="out",
            output="auto",
        )

        # Snapshot labels of the changed set for the next round.
        def snapshot(active: np.ndarray) -> None:
            prev_ids.values[active] = ids.values[active]

        if frontier:
            engine.vertex_map(
                frontier, snapshot, read_props=[ids], write_props=[prev_ids]
            )
        engine.stats.iterations = rounds

    labels = ids.values.copy().astype(np.int64)
    return AlgorithmResult(
        name="cc",
        engine=engine,
        values={
            "labels": labels,
            "num_components": np.int64(len(unique_ids(labels, n))),
        },
        iterations=rounds,
    )


def cc_reference(graph: CSRGraph) -> np.ndarray:
    """Union-find oracle: per-vertex minimum-id component labels."""
    n = graph.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    src, dst = graph.edge_arrays()
    for u, v in zip(src, dst):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    labels = np.fromiter((find(v) for v in range(n)), dtype=np.int64, count=n)
    # Normalize each component to its minimum member id.
    out = np.empty(n, dtype=np.int64)
    for root in unique_ids(labels, n):
        members = np.flatnonzero(labels == root)
        out[members] = members.min()
    return out
