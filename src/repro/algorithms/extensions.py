"""Extension algorithms beyond the paper's Table II set.

OMEGA's pitch over fixed-function accelerators is generality: any
vertex-centric algorithm whose update reduces to a simple atomic runs
unmodified. These two kernels — not evaluated in the paper — exercise
that claim end-to-end and double as examples of writing new algorithms
against the engine API:

- **Maximal independent set** (Luby-style): priority-min propagation,
  an ``unsigned min`` PISC op like CC.
- **Label propagation** (semi-supervised community detection): min
  label flooding from seeds, also ``unsigned min``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.intsort import unique_ids
from repro.algorithms.common import AlgorithmResult, make_engine, require_undirected
from repro.ligra.atomics import AtomicOp, scatter_atomic
from repro.ligra.vertex_subset import VertexSubset

__all__ = [
    "run_mis",
    "mis_reference_check",
    "run_label_propagation",
    "label_propagation_reference",
]


def run_mis(
    graph: CSRGraph,
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
    seed: int = 0,
) -> AlgorithmResult:
    """Maximal independent set via Luby's random-priority algorithm.

    Each round, every undecided vertex whose random priority beats all
    undecided neighbors joins the set; its neighbors drop out. The
    per-edge operation is an unsigned-min scatter of priorities —
    PISC-friendly, like CC.
    """
    require_undirected(graph, "MIS")
    n = graph.num_vertices
    engine = make_engine(graph, num_cores, chunk_size, trace)
    rng = np.random.default_rng(seed)

    # Random priorities; ties broken by id (encode id in low bits).
    priority = (
        rng.permutation(n).astype(np.uint32) + 1
    )  # 1..n, unique, 0 reserved
    #: Minimum priority among undecided neighbors, per vertex.
    nbr_min = engine.alloc_prop("nbr_min", np.uint32,
                                fill=np.iinfo(np.uint32).max)
    state = engine.alloc_prop("state", np.uint8)  # 0 undecided 1 in 2 out

    undecided = VertexSubset.full(n)
    rounds = 0
    while undecided and rounds < n:
        rounds += 1
        nbr_min.values[:] = np.iinfo(np.uint32).max

        def push_priorities(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            live = (state.values[srcs] == 0) & (state.values[dsts] == 0)
            s, d = srcs[live], dsts[live]
            if len(d) == 0:
                return d
            return scatter_atomic(
                AtomicOp.UINT_MIN, nbr_min.values, d, priority[s]
            )

        engine.edge_map(
            undecided,
            push_priorities,
            src_props=[state],
            dst_props=[nbr_min],
            direction="out",
            output="none",
        )

        ids = undecided.to_sparse()

        def decide(active: np.ndarray) -> Optional[np.ndarray]:
            und = active[state.values[active] == 0]
            winners = und[priority[und] < nbr_min.values[und]]
            state.values[winners] = 1
            return None

        engine.vertex_map(
            undecided, decide, read_props=[nbr_min], write_props=[state]
        )

        # Winners' neighbors drop out.
        winners = ids[state.values[ids] == 1]

        def knock_out(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            fresh = dsts[state.values[dsts] == 0]
            state.values[fresh] = 2
            return unique_ids(fresh, n)

        engine.edge_map(
            VertexSubset(n, ids=winners),
            knock_out,
            src_props=[state],
            dst_props=[state],
            direction="out",
            output="none",
        )
        undecided = VertexSubset(n, ids=ids[state.values[ids] == 0])
        engine.stats.iterations = rounds

    in_set = state.values == 1
    return AlgorithmResult(
        name="mis",
        engine=engine,
        values={"in_set": in_set.copy(), "rounds": np.int64(rounds)},
        iterations=rounds,
    )


def mis_reference_check(graph: CSRGraph, in_set: np.ndarray) -> bool:
    """Verify independence and maximality of a claimed MIS."""
    n = graph.num_vertices
    members = set(np.flatnonzero(in_set).tolist())
    for v in members:
        for w in graph.out_neighbors(v):
            if int(w) != v and int(w) in members:
                return False  # not independent
    for v in range(n):
        if v in members:
            continue
        nbrs = set(int(w) for w in graph.out_neighbors(v))
        if not (nbrs & members):
            return False  # not maximal: v could join
    return True


def run_label_propagation(
    graph: CSRGraph,
    seeds: Sequence[int],
    num_cores: int = 16,
    chunk_size: Optional[int] = None,
    trace: bool = True,
    max_rounds: Optional[int] = None,
) -> AlgorithmResult:
    """Min-label flooding from seed vertices (community detection).

    Seed ``i`` floods label ``i``; every vertex adopts the minimum
    label among labels reaching it (an unsigned-min atomic per edge,
    frontier-driven like CC).
    """
    n = graph.num_vertices
    if not seeds:
        raise SimulationError("label propagation needs at least one seed")
    seeds = [int(s) for s in seeds]
    if min(seeds) < 0 or max(seeds) >= n:
        raise SimulationError(f"seed out of range [0, {n - 1}]")
    limit = max_rounds if max_rounds is not None else n
    engine = make_engine(graph, num_cores, chunk_size, trace)
    unlabeled = np.iinfo(np.uint32).max
    label = engine.alloc_prop("label", np.uint32, fill=unlabeled)
    for community, seed_vertex in enumerate(seeds):
        label.values[seed_vertex] = min(
            label.values[seed_vertex], np.uint32(community)
        )

    frontier = VertexSubset(n, ids=np.array(seeds, dtype=np.int64))
    rounds = 0
    while frontier and rounds < limit:
        rounds += 1

        def push(srcs, dsts, _weights) -> np.ndarray:
            if len(srcs) == 0:
                return srcs
            return scatter_atomic(
                AtomicOp.UINT_MIN, label.values, dsts, label.values[srcs]
            )

        frontier = engine.edge_map(
            frontier,
            push,
            src_props=[label],
            dst_props=[label],
            direction="out",
            output="auto",
        )
        engine.stats.iterations = rounds

    labels = label.values.copy().astype(np.int64)
    labels[labels == unlabeled] = -1
    return AlgorithmResult(
        name="label_propagation",
        engine=engine,
        values={"labels": labels},
        iterations=rounds,
    )


def label_propagation_reference(
    graph: CSRGraph, seeds: Sequence[int]
) -> np.ndarray:
    """Test oracle: ``labels[v]`` is the smallest community whose seed
    reaches ``v`` (the min-flood fixpoint), −1 if no seed reaches it."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    # Ascending communities: the first one to reach a vertex is minimal.
    # A seed already claimed by a smaller community floods nothing new
    # (that community's own flood covers everything reachable from it).
    for community, seed in enumerate(seeds):
        seed = int(seed)
        if labels[seed] != -1 and labels[seed] <= community:
            continue
        labels[seed] = community
        queue = [seed]
        while queue:
            v = queue.pop()
            for w in graph.out_neighbors(v):
                w = int(w)
                if labels[w] == -1 or labels[w] > community:
                    labels[w] = community
                    queue.append(w)
    return labels
