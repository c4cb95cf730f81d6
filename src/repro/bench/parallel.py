"""Process-parallel sweep executor.

A sweep is a (datasets × algorithms × backends) grid of independent
:func:`repro.core.system.run_system` calls. Each run is pure Python and
GIL-bound, so the executor fans the grid across a
:class:`concurrent.futures.ProcessPoolExecutor`; workers deduplicate
the expensive trace-generation stage through the shared persistent
trace store (:mod:`repro.store`) — the first worker to need a trace
generates and caches it, everyone else loads it.

Determinism: results are returned in task order regardless of worker
completion order, every simulated counter is a pure function of the
task (synthetic datasets are seeded), and host-time fields are clearly
separated — so a 4-worker sweep and a serial sweep produce identical
rows apart from timings.

The ``repro sweep`` CLI subcommand is a thin veneer over
:func:`run_sweep`; library users can build custom grids with
:func:`build_grid` or hand-rolled :class:`SweepTask` lists.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError

__all__ = [
    "SweepTask",
    "build_grid",
    "run_sweep",
    "run_task",
    "parse_prune_spec",
    "prune_reason",
    "save_rows_json",
    "save_rows_csv",
    "SWEEP_ROW_FIELDS",
]

#: Column order for CSV export (and the stable key order of row dicts).
SWEEP_ROW_FIELDS = (
    "dataset",
    "algorithm",
    "backend",
    "scale",
    "num_cores",
    "cycles",
    "l2_hit_rate",
    "last_level_hit_rate",
    "onchip_traffic_bytes",
    "dram_bytes",
    "energy_nj",
    "trace_events",
    "trace_bytes",
    "trace_cache",
    "replay_seconds",
    "run_seconds",
    "pruned",
)

#: Comparison operators a prune clause may use, longest first so the
#: two-character forms win the scan.
_PRUNE_OPS = (
    ("<=", lambda a, b: a <= b),
    (">=", lambda a, b: a >= b),
    ("<", lambda a, b: a < b),
    (">", lambda a, b: a > b),
)


def parse_prune_spec(spec: str) -> List[tuple]:
    """Parse an ``--estimate-prune`` interest band.

    The spec is a comma-separated conjunction of clauses, each
    ``metric OP value`` with ``OP`` one of ``<``, ``<=``, ``>``,
    ``>=`` — e.g. ``"l2_hit_rate<0.5,dram_bytes>1e6"``. A sweep cell
    is *kept* when its predicted metrics satisfy every clause and
    pruned (replay skipped) otherwise. Metric names are the keys of
    :meth:`repro.memsim.estimate.ReplayEstimate.as_dict`.
    """
    from repro.memsim.estimate import ReplayEstimate

    known = ReplayEstimate().as_dict().keys()
    rules = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for op, fn in _PRUNE_OPS:
            if op in clause:
                metric, _, raw = clause.partition(op)
                metric = metric.strip()
                if metric not in known:
                    raise SimulationError(
                        f"unknown prune metric {metric!r};"
                        f" known: {', '.join(sorted(known))}"
                    )
                try:
                    value = float(raw)
                except ValueError:
                    raise SimulationError(
                        f"bad prune threshold in {clause!r}"
                    ) from None
                rules.append((metric, op, value, fn))
                break
        else:
            raise SimulationError(
                f"bad prune clause {clause!r} (want 'metric<value' or"
                " 'metric>value')"
            )
    if not rules:
        raise SimulationError("empty --estimate-prune spec")
    return rules


def prune_reason(metrics: Dict, rules: Sequence[tuple]) -> Optional[str]:
    """First violated clause, as a human-readable string; None = keep."""
    for metric, op, value, fn in rules:
        have = metrics[metric]
        if not fn(have, value):
            return f"{metric}={have:g} !{op} {value:g}"
    return None


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid."""

    dataset: str
    algorithm: str
    backend: str
    scale: float = 1.0
    num_cores: int = 16
    chunk_size: int = 32


def build_grid(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    backends: Sequence[str],
    scale: float = 1.0,
    num_cores: int = 16,
    chunk_size: int = 32,
) -> List[SweepTask]:
    """The full (datasets × algorithms × backends) grid, datasets-major.

    The ordering is deterministic and matches the nesting of the
    ``repro sweep`` output table.
    """
    return [
        SweepTask(
            dataset=d, algorithm=a, backend=b, scale=scale,
            num_cores=num_cores, chunk_size=chunk_size,
        )
        for a in algorithms
        for d in datasets
        for b in backends
    ]


def run_task(
    task: SweepTask,
    cache=None,
    prune: Optional[str] = None,
    context=None,
) -> Dict:
    """Execute one sweep cell and flatten the report into a row dict.

    Module-level (and taking only picklable arguments) so it can cross
    a process boundary; ``cache`` is the ``cache`` selector of
    :meth:`repro.core.context.RunContext.from_env`. ``context`` is
    an optional :class:`repro.core.context.RunContext`; when given it
    is authoritative and ``cache`` is ignored — the sweep executor
    resolves ambient state exactly once in the parent and ships the
    value here, so workers never re-derive it from the environment.

    ``prune`` is an :func:`parse_prune_spec` interest band: when given,
    the cell is first estimated analytically
    (:func:`repro.core.system.estimate_system` — exact route shares,
    reuse-gap cache model, no replay) and skipped when the prediction
    falls outside the band. A pruned row keeps the identity columns,
    carries ``pruned`` = the violated clause and ``estimate`` = the
    full prediction, and leaves the measured columns ``None``.
    """
    import time

    from repro.algorithms.registry import ALGORITHMS
    from repro.core.context import RunContext, RunRequest
    from repro.core.system import (
        default_backend_config,
        estimate_system,
        run_system,
    )
    from repro.graph.datasets import load_dataset

    info = ALGORITHMS.get(task.algorithm)
    if info is None:
        raise SimulationError(
            f"unknown algorithm {task.algorithm!r};"
            f" available: {', '.join(ALGORITHMS)}"
        )
    if context is None:
        context = RunContext.from_env(cache=cache)
    rules = parse_prune_spec(prune) if prune else None
    start = time.perf_counter()
    graph, _spec = load_dataset(
        task.dataset, scale=task.scale, weighted=info.requires_weights
    )
    if info.requires_undirected and graph.directed:
        graph = graph.as_undirected()
    config = default_backend_config(task.backend, num_cores=task.num_cores)
    request = RunRequest(
        task.algorithm, backend=task.backend, dataset=task.dataset,
        chunk_size=task.chunk_size,
    )
    if rules is not None:
        est = estimate_system(graph, request, config, context=context)
        metrics = est.as_dict()
        reason = prune_reason(metrics, rules)
        if reason is not None:
            return {
                "dataset": task.dataset,
                "algorithm": task.algorithm,
                "backend": task.backend,
                "scale": task.scale,
                "num_cores": task.num_cores,
                "cycles": None,
                "l2_hit_rate": None,
                "last_level_hit_rate": None,
                "onchip_traffic_bytes": None,
                "dram_bytes": None,
                "energy_nj": None,
                "trace_events": est.events,
                "trace_bytes": None,
                "trace_cache": "est",
                "replay_seconds": 0.0,
                "run_seconds": time.perf_counter() - start,
                "pruned": reason,
                "estimate": metrics,
            }
    report = run_system(graph, request, config, context=context)
    run_seconds = time.perf_counter() - start
    cache_state = "off"
    if report.trace_cache and report.trace_cache.get("enabled"):
        cache_state = "hit" if report.trace_cache.get("hit") else "miss"
    return {
        "dataset": task.dataset,
        "algorithm": task.algorithm,
        "backend": task.backend,
        "scale": task.scale,
        "num_cores": task.num_cores,
        "cycles": report.cycles,
        "l2_hit_rate": report.stats.l2_hit_rate,
        "last_level_hit_rate": report.stats.last_level_hit_rate,
        "onchip_traffic_bytes": report.stats.onchip_traffic_bytes,
        "dram_bytes": report.stats.dram_bytes,
        "energy_nj": report.energy.total_nj,
        "trace_events": report.trace_events,
        "trace_bytes": report.trace_bytes,
        "trace_cache": cache_state,
        "replay_seconds": report.replay_seconds,
        "run_seconds": run_seconds,
        "pruned": "",
    }


def _run_task_in_worker(payload) -> Dict:
    """Worker-side shim: unpack ``(task dict, context spec, prune spec)``.

    The context spec is the :meth:`RunContext.to_spec` dict the parent
    serialized — workers rebuild the run context from the shipped
    *values* and never consult their own environment.
    """
    from repro.core.context import RunContext

    task_dict, context_spec, prune = payload
    context = RunContext.from_spec(context_spec)
    return run_task(SweepTask(**task_dict), prune=prune, context=context)


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: int = 1,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
    prune: Optional[str] = None,
) -> List[Dict]:
    """Run a sweep grid, optionally across worker processes.

    ``workers <= 1`` runs inline (no pool, easiest to debug);
    ``workers > 1`` fans tasks across a ``ProcessPoolExecutor``. Rows
    come back in task order either way. ``cache`` is the ``cache``
    selector of :meth:`repro.core.context.RunContext.from_env`
    (``False``, a path, a :class:`~repro.store.TraceStore`, or
    ``None`` for ``REPRO_CACHE_DIR``); the parent resolves
    it (and the rest of the ambient state) into one
    :class:`repro.core.context.RunContext` up front, and workers
    receive that context's :meth:`~repro.core.context.RunContext.to_spec`
    serialization — a live store handle crosses the process boundary
    as its directory path, which is exactly how workers deduplicate
    generation work. ``prune`` is an estimate-prune spec
    applied to every cell (see :func:`run_task`); pass it here rather
    than pre-filtering so pruned cells still appear as rows.
    """
    from repro.core.context import RunContext

    if prune:
        parse_prune_spec(prune)  # fail fast, before any work runs
    tasks = list(tasks)
    # Ambient state is resolved exactly once, here in the parent; every
    # cell (inline or in a worker process) runs under this one value.
    context = RunContext.from_env(cache=cache)
    if workers <= 1 or len(tasks) <= 1:
        rows = []
        for i, task in enumerate(tasks):
            rows.append(run_task(task, prune=prune, context=context))
            if progress is not None:
                progress(
                    f"[{i + 1}/{len(tasks)}] {task.algorithm}/{task.dataset}"
                    f"/{task.backend}"
                )
        return rows

    payloads = [(asdict(task), context.to_spec(), prune) for task in tasks]
    rows: List[Optional[Dict]] = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = 0
        # Ordered map keeps rows deterministic; chunksize 1 balances the
        # grid's very uneven cell costs across workers.
        for i, row in enumerate(pool.map(_run_task_in_worker, payloads)):
            rows[i] = row
            done += 1
            if progress is not None:
                task = tasks[i]
                progress(
                    f"[{done}/{len(tasks)}] {task.algorithm}/{task.dataset}"
                    f"/{task.backend}"
                )
    return rows  # type: ignore[return-value]


def save_rows_json(rows: Sequence[Dict], path) -> None:
    """Write sweep rows as a JSON document (stable key order)."""
    doc = {
        "schema": "omega-repro/sweep-results/v1",
        "rows": [
            {k: row[k] for k in SWEEP_ROW_FIELDS if k in row} for row in rows
        ],
    }
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)


def save_rows_csv(rows: Sequence[Dict], path) -> None:
    """Write sweep rows as CSV with the :data:`SWEEP_ROW_FIELDS` columns."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(
            f, fieldnames=list(SWEEP_ROW_FIELDS), extrasaction="ignore"
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
