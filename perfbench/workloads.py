"""The three fixed-work workloads.

Each workload has a ``setup`` (graph builds and, for ``sweep-warm``,
store population) and a ``work`` pass that runs a fixed list of cells.
Inputs come only from the benchmark seed: it is handed to
``load_dataset``/``rmat_graph`` and the program receives the generated
graphs. Every cell returns its simulated counters so the parent can
check them bit for bit.

Drivers are looked up on their modules at call time
(``system.run_system``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import RunContext, RunRequest, load_dataset
from repro.core import system
from repro.graph.generators import rmat_graph
from repro.store import TraceStore

#: Large enough that no workload ever evicts.
STORE_CAPACITY = 1 << 34

#: All five hierarchies of Section IX.
BACKENDS = ("baseline", "omega", "locked", "graphpim", "dynamic")


@dataclasses.dataclass
class Cell:
    """One driver call of a work pass and what it produced."""

    name: str
    events: int = 0
    counters: Optional[Dict] = None
    error: Optional[str] = None
    #: Store hit, for cells that must be warm (``None`` otherwise).
    hit: Optional[bool] = None
    segments: int = 0
    kernel: Optional[Dict] = None


def _stats_counters(report) -> Dict:
    stats = report.stats
    out = {f.name: getattr(stats, f.name)
           for f in dataclasses.fields(stats)}
    out["total_cycles"] = report.timing.total_cycles
    return out


def _estimate_counters(est) -> Dict:
    out = dataclasses.asdict(est)
    out["route_counts"] = {str(k): v for k, v in est.route_counts.items()}
    return out


def _run_cell(name: str, call: Callable, span) -> Tuple[Cell, object]:
    cell = Cell(name)
    try:
        with span("core"):
            return cell, call()
    except Exception as exc:  # a failing cell counts against success_rate
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell, None


def _replay_cell(name: str, graph, request, context, span,
                 warm: bool) -> Cell:
    cell, report = _run_cell(
        name,
        lambda: system.run_system(graph, request=request, context=context),
        span,
    )
    if report is not None:
        cell.events = int(report.trace_events)
        cell.counters = _stats_counters(report)
        cell.segments = int(report.num_segments)
        cell.kernel = dict(report.replay.kernel or {})
        if warm:
            cell.hit = bool(report.trace_cache.get("hit"))
    return cell


def _estimate_cell(name: str, graph, request, context, span) -> Cell:
    cell, est = _run_cell(
        name,
        lambda: system.estimate_system(graph, request=request,
                                       context=context),
        span,
    )
    if est is not None:
        cell.events = int(est.events)
        cell.counters = _estimate_counters(est)
    return cell


def _store(root: Path) -> TraceStore:
    return TraceStore(root, capacity_bytes=STORE_CAPACITY)


class SweepWarm:
    """Warm replays of Table II cells through all five backends."""

    name = "sweep-warm"
    #: (algorithm, dataset) cells, each replayed on every backend.
    CELLS = (
        ("pagerank", "ic"),
        ("pagerank", "lj"),
        ("bfs", "sd"),
        ("sssp", "sd"),
        ("cc", "ap"),
    )

    def setup(self, seed: int, root: Path, span) -> Dict:
        graphs = {}
        for alg, ds in self.CELLS:
            graphs[alg, ds], _ = load_dataset(
                ds, seed=seed, weighted=(alg == "sssp")
            )
        context = RunContext(store=_store(root))
        # estimate_system generates and stores both trace orders
        # (original for baseline/graphpim/dynamic, reordered for
        # omega/locked) without replaying them.
        for (alg, ds), graph in graphs.items():
            for backend in ("baseline", "omega"):
                with span("core"):
                    system.estimate_system(
                        graph, context=context,
                        request=RunRequest(algorithm=alg, backend=backend,
                                           dataset=ds),
                    )
        return {"graphs": graphs, "context": context}

    def work(self, state: Dict, root: Path, span) -> List[Cell]:
        cells = []
        for (alg, ds), graph in state["graphs"].items():
            for backend in BACKENDS:
                cells.append(_replay_cell(
                    f"{alg}/{ds}/{backend}", graph,
                    RunRequest(algorithm=alg, backend=backend, dataset=ds),
                    state["context"], span, warm=True,
                ))
        return cells


class EstimateCold:
    """The ``--estimate-prune`` path on the largest stand-ins, cold."""

    name = "estimate-cold"
    DATASETS = ("twitter", "uk", "ic")

    def setup(self, seed: int, root: Path, span) -> Dict:
        return {"graphs": {ds: load_dataset(ds, seed=seed)[0]
                           for ds in self.DATASETS}}

    def work(self, state: Dict, root: Path, span) -> List[Cell]:
        context = RunContext(store=_store(root))
        cells = []
        for ds, graph in state["graphs"].items():
            for backend in ("baseline", "omega"):
                cells.append(_estimate_cell(
                    f"pagerank/{ds}/{backend}", graph,
                    RunRequest(algorithm="pagerank", backend=backend,
                               dataset=ds),
                    context, span,
                ))
        return cells


class StreamAttributed:
    """Cold out-of-core PageRank on RMAT-14 with attribution on."""

    name = "stream-attributed"
    SCALE = 14
    EDGE_FACTOR = 16
    MAX_ITERS = 4
    SEGMENT_EVENTS = 262144

    def setup(self, seed: int, root: Path, span) -> Dict:
        graph = rmat_graph(self.SCALE, edge_factor=self.EDGE_FACTOR,
                           seed=seed)
        return {"graph": graph}

    def work(self, state: Dict, root: Path, span) -> List[Cell]:
        context = RunContext(
            store=_store(root), segment_events=self.SEGMENT_EVENTS,
            attribution=True,
        )
        cells = []
        for backend in ("baseline", "omega"):
            cells.append(_replay_cell(
                f"pagerank/rmat{self.SCALE}/{backend}", state["graph"],
                RunRequest(algorithm="pagerank", backend=backend,
                           dataset=f"rmat{self.SCALE}",
                           alg_kwargs={"max_iters": self.MAX_ITERS}),
                context, span, warm=False,
            ))
        return cells


WORKLOADS = {w.name: w for w in (SweepWarm, EstimateCold, StreamAttributed)}
