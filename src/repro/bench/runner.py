"""Shared experiment runner for the benchmark harness.

Centralizes dataset loading (with caching), the default benchmark
scale, and the algorithm × dataset sweep most figures are built from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.core.report import Comparison
from repro.core.system import compare_systems
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DatasetSpec, load_dataset

__all__ = [
    "BENCH_SCALE",
    "FIG14_WORKLOADS",
    "PAGERANK_DATASETS",
    "bench_graph",
    "run_comparison",
    "sweep",
]

#: Dataset scale used by the benchmark harness (1.0 = registry defaults).
BENCH_SCALE = 1.0

#: Datasets used by the PageRank-only figures (Figs 15-17, 21) —
#: Table I order, road controls included, twitter excluded (the paper
#: defers it to the high-level model of Fig 20).
PAGERANK_DATASETS: Tuple[str, ...] = (
    "sd", "rmat", "orkut", "wiki", "lj", "ic", "rPA", "rCA",
)

#: (algorithm, dataset) pairs for the Fig 14 speedup sweep, mirroring
#: the paper's workload selection: CC/TC/KC run on the undirected ap,
#: SSSP on weighted graphs, the rest across the power-law sets plus
#: the road controls.
FIG14_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("pagerank", "sd"), ("pagerank", "rmat"), ("pagerank", "orkut"),
    ("pagerank", "wiki"), ("pagerank", "lj"), ("pagerank", "ic"),
    ("pagerank", "rPA"), ("pagerank", "rCA"),
    ("bfs", "sd"), ("bfs", "rmat"), ("bfs", "wiki"), ("bfs", "lj"),
    ("bfs", "rPA"), ("bfs", "rCA"),
    ("sssp", "sd"), ("sssp", "rmat"), ("sssp", "lj"),
    ("bc", "sd"), ("bc", "lj"),
    ("radii", "sd"), ("radii", "lj"),
    ("cc", "ap"), ("tc", "ap"), ("kc", "ap"),
)

_GRAPH_CACHE: Dict[Tuple[str, float, bool], Tuple[CSRGraph, DatasetSpec]] = {}


def bench_graph(
    name: str,
    scale: float = BENCH_SCALE,
    weighted: bool = False,
    undirected: bool = False,
) -> Tuple[CSRGraph, DatasetSpec]:
    """Load (and cache) a dataset stand-in for benchmarking."""
    key = (name, scale, weighted)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = load_dataset(name, scale=scale, weighted=weighted)
    graph, spec = _GRAPH_CACHE[key]
    if undirected and graph.directed:
        graph = graph.as_undirected()
    return graph, spec


def run_comparison(
    algorithm: str,
    dataset: str,
    scale: float = BENCH_SCALE,
    baseline_config: Optional[SimConfig] = None,
    omega_config: Optional[SimConfig] = None,
    **kwargs,
) -> Comparison:
    """Run one baseline-vs-OMEGA comparison for a named workload.

    Extra ``kwargs`` are :class:`~repro.core.context.RunRequest`
    fields (chunk size, reorder, algorithm kwargs).
    """
    from repro.algorithms.registry import ALGORITHMS

    info = ALGORITHMS[algorithm]
    graph, _ = bench_graph(
        dataset,
        scale=scale,
        weighted=info.requires_weights,
        undirected=info.requires_undirected,
    )
    return compare_systems(
        graph,
        RunRequest(algorithm, dataset=dataset, **kwargs),
        baseline_config=baseline_config,
        omega_config=omega_config,
    )


def sweep(
    workloads: Sequence[Tuple[str, str]],
    scale: float = BENCH_SCALE,
    **kwargs,
) -> List[Comparison]:
    """Run a list of (algorithm, dataset) comparisons."""
    return [
        run_comparison(alg, ds, scale=scale, **kwargs) for alg, ds in workloads
    ]
