"""Betweenness centrality, forward ("first") pass.

The paper simulates only BC's first pass (Section X workloads note):
a level-synchronous forward sweep from the root that counts the number
of shortest paths through each vertex (``num_paths``, accumulated with
an atomic floating-point add guarded by the level check — Table II
lists BC's atomic as "min & fp add" with a medium atomic fraction).
The backward dependency pass is also provided for completeness.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.intsort import unique_ids
from repro.algorithms.common import AlgorithmResult, default_source, make_engine
from repro.ligra.atomics import AtomicOp, scatter_atomic
from repro.ligra.vertex_subset import VertexSubset

__all__ = ["run_bc", "bc_reference_num_paths"]


def run_bc(
    graph: CSRGraph,
    source: Optional[int] = None,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
    backward_pass: bool = False,
) -> AlgorithmResult:
    """BC forward pass from ``source``; optionally the backward pass too.

    Returns ``num_paths`` (shortest-path counts) and ``level``; with
    ``backward_pass=True`` also ``dependency`` and ``centrality``.
    """
    n = graph.num_vertices
    if source is None:
        source = default_source(graph)
    if not 0 <= source < n:
        raise SimulationError(f"source {source} out of range [0, {n - 1}]")
    engine = make_engine(graph, num_cores, chunk_size, trace)

    num_paths = engine.alloc_prop("num_paths", np.float64)
    # The level/visited check lives in framework memory (cache path):
    # Table II lists BC with a single 8-byte vtxProp (num_paths).
    level = engine.alloc_prop("level", np.int32, fill=-1, vtxprop=False)
    num_paths.values[source] = 1.0
    level.values[source] = 0

    frontier = VertexSubset.single(n, source)
    frontiers: List[VertexSubset] = [frontier]
    rounds = 0
    while frontier:
        rounds += 1
        current_round = rounds

        def accumulate(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            # Only propagate into vertices not settled at an earlier level.
            open_mask = (level.values[dsts] < 0) | (
                level.values[dsts] == current_round
            )
            s, d = srcs[open_mask], dsts[open_mask]
            if len(d) == 0:
                return d
            scatter_atomic(
                AtomicOp.FP_ADD_DEP, num_paths.values, d, num_paths.values[s]
            )
            newly = unique_ids(d[level.values[d] < 0], n)
            level.values[newly] = current_round
            return newly

        frontier = engine.edge_map(
            frontier,
            accumulate,
            src_props=[num_paths, level],
            dst_props=[num_paths],
            direction="out",
            output="auto",
        )
        engine.stats.iterations = rounds
        if frontier:
            frontiers.append(frontier)

    values = {
        "num_paths": num_paths.values.copy(),
        "level": level.values.copy().astype(np.int64),
    }

    if backward_pass:
        dependency = engine.alloc_prop("dependency", np.float64)
        inv_paths = np.where(
            num_paths.values > 0, 1.0 / np.maximum(num_paths.values, 1e-300), 0.0
        )
        # Walk levels deepest-first; for each DAG edge (s at L) -> (d at
        # L+1) accumulate d's dependency share back into s. The event
        # pattern (per-edge src reads + one atomic RMW) matches Ligra's
        # transposed edgeMap.
        for sub in reversed(frontiers[:-1]):

            def back(srcs, dsts, _weights) -> np.ndarray:
                if len(srcs) == 0:
                    return srcs
                mask = level.values[dsts] == level.values[srcs] + 1
                s, d = srcs[mask], dsts[mask]
                if len(s) == 0:
                    return s
                contrib = (
                    num_paths.values[s] * inv_paths[d] * (1.0 + dependency.values[d])
                )
                scatter_atomic(AtomicOp.FP_ADD_DEP, dependency.values, s, contrib)
                return unique_ids(s, n)

            engine.edge_map(
                sub,
                back,
                src_props=[num_paths, dependency],
                dst_props=[dependency],
                direction="out",
                output="none",
            )
        centrality = dependency.values.copy()
        centrality[source] = 0.0
        values["dependency"] = dependency.values.copy()
        values["centrality"] = centrality

    return AlgorithmResult(
        name="bc", engine=engine, values=values, iterations=rounds
    )


def bc_reference_num_paths(graph: CSRGraph, source: int) -> np.ndarray:
    """Sequential Brandes forward pass (path counts), the test oracle."""
    n = graph.num_vertices
    paths = np.zeros(n, dtype=np.float64)
    level = np.full(n, -1, dtype=np.int64)
    paths[source] = 1.0
    level[source] = 0
    queue = [source]
    while queue:
        nxt = []
        for u in queue:
            for v in graph.out_neighbors(u):
                v = int(v)
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                if level[v] == level[u] + 1:
                    paths[v] += paths[u]
        queue = nxt
    return paths
