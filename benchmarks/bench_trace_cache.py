"""Trace-store perf: cold-vs-warm run_system and serial-vs-parallel sweep.

Measures the two wall-clock claims of docs/performance.md on the
headline workload (PageRank on the lj stand-in, OMEGA backend):

1. **Trace acquisition.** A warm store hit replaces the whole cold
   acquisition stage — reorder + algorithm execution + persisting the
   new entry — with one archive load. This is the stage the store
   exists to remove and the asserted bar is >=5x.
2. **End to end.** Both runs still pay the replay + timing/energy
   stages, which the store deliberately does not cache (they depend on
   the backend configuration). Since batch-vectorized replay is the
   dominant remaining cost on this 1-iteration PageRank workload, the
   end-to-end warm win is the acquisition win diluted by the replay
   floor; the table records both so the decomposition stays visible.
3. **Parallel sweep.** A multi-cell grid through
   ``run_sweep(workers=4)`` vs the serial executor, sharing semantics
   verified row-by-row. Process parallelism needs processors: the >=2x
   bar is asserted only when the host has >=4 CPUs (a 1-core CI
   container can only measure the executor's overhead).

Private throwaway store directories are used throughout — never the
shared benchmark store — so this file stays meaningful on a warm
harness.
"""

import os
import shutil
import tempfile
import time

from repro.bench import bench_graph, build_grid, format_table, run_sweep
from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_system
from repro.obs import SpanTracer, use_tracer
from repro.store import TraceStore

from conftest import emit, record

ROUNDS = 3
SWEEP_WORKERS = 4

#: Spans making up the cold acquisition stage, and the warm one.
COLD_STAGE = ("reorder", "trace_generation", "trace_store.store")
WARM_STAGE = ("trace_store.load",)


def _timed_run(graph, cfg, store, stage_names):
    tracer = SpanTracer()
    start = time.perf_counter()
    with use_tracer(tracer):
        report = run_system(
            graph, RunRequest("pagerank", dataset="lj"), cfg,
            context=RunContext.from_env(cache=store),
        )
    total = time.perf_counter() - start
    stage = sum(
        r.dur_us for r in tracer.records if r.name in stage_names
    ) / 1e6
    return total, stage, report


def _measure_run_system():
    graph, _ = bench_graph("lj")
    cfg = SimConfig.scaled_omega()
    root = tempfile.mkdtemp(prefix="trace-cache-bench-")
    try:
        store = TraceStore(root)
        best_cold = best_cold_stage = float("inf")
        for _ in range(ROUNDS):
            store.clear()
            total, stage, cold = _timed_run(graph, cfg, store, COLD_STAGE)
            best_cold = min(best_cold, total)
            best_cold_stage = min(best_cold_stage, stage)
        best_warm = best_warm_stage = float("inf")
        for _ in range(ROUNDS):
            total, stage, warm = _timed_run(graph, cfg, store, WARM_STAGE)
            best_warm = min(best_warm, total)
            best_warm_stage = min(best_warm_stage, stage)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    assert cold.trace_cache["hit"] is False
    assert warm.trace_cache["hit"] is True
    assert warm.stats.as_dict() == cold.stats.as_dict()
    assert warm.cycles == cold.cycles
    return (best_cold, best_warm), (best_cold_stage, best_warm_stage)


def _measure_sweep():
    grid = build_grid(["sd", "lj"], ["pagerank", "bfs"],
                      ["baseline", "omega"], scale=0.5)
    root = tempfile.mkdtemp(prefix="trace-cache-bench-sweep-")
    try:
        start = time.perf_counter()
        serial_rows = run_sweep(grid, workers=1, cache=root + "/serial")
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        par_rows = run_sweep(grid, workers=SWEEP_WORKERS,
                             cache=root + "/parallel")
        par_s = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)

    host = ("replay_seconds", "run_seconds", "trace_cache")
    for s, p in zip(serial_rows, par_rows):
        s = {k: v for k, v in s.items() if k not in host}
        p = {k: v for k, v in p.items() if k not in host}
        assert s == p, (s, p)
    return serial_s, par_s, len(grid)


def test_trace_cache_speedup(benchmark):
    (ends, stages), (serial_s, par_s, cells) = benchmark.pedantic(
        lambda: (_measure_run_system(), _measure_sweep()),
        rounds=1, iterations=1,
    )
    cold_s, warm_s = ends
    cold_stage, warm_stage = stages
    stage_x = cold_stage / warm_stage
    end_x = cold_s / warm_s
    par_x = serial_s / par_s
    cpus = os.cpu_count() or 1
    rows = [
        {
            "experiment": "trace acquisition (PageRank/lj, omega)",
            "baseline s": round(cold_stage, 3),
            "optimized s": round(warm_stage, 3),
            "speedup": f"{stage_x:.1f}x",
            "note": "reorder+generate+persist vs store load",
        },
        {
            "experiment": "run_system end-to-end",
            "baseline s": round(cold_s, 3),
            "optimized s": round(warm_s, 3),
            "speedup": f"{end_x:.2f}x",
            "note": "replay floor paid by both runs",
        },
        {
            "experiment": f"sweep, {cells} cells at scale 0.5",
            "baseline s": round(serial_s, 3),
            "optimized s": round(par_s, 3),
            "speedup": f"{par_x:.2f}x",
            "note": f"serial vs {SWEEP_WORKERS} workers on {cpus} cpu(s)",
        },
    ]
    text = format_table(
        rows, "Trace store + parallel sweep — wall-clock wins"
    )
    text += (
        "\nwarm counters verified bit-identical to cold; sweep rows"
        " identical modulo host timings.\nA warm hit removes the whole"
        " acquisition stage; end-to-end gain is that win diluted by\n"
        "the (uncached, backend-dependent) replay stage.\n"
    )
    emit("trace_cache", text)
    record(
        "trace_cache",
        {
            "acquisition_speedup": round(stage_x, 3),
            "end_to_end_speedup": round(end_x, 3),
            "sweep_speedup": round(par_x, 3),
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
        },
        context={
            "workload": "pagerank/lj (omega)",
            "sweep_cells": cells,
            "sweep_workers": SWEEP_WORKERS,
            "cpus": cpus,
            "rounds": ROUNDS,
        },
    )

    # Acceptance bars: the cached stage must win >=5x and the warm run
    # must show an honest end-to-end improvement. The parallel-sweep
    # >=2x bar only binds where there are processors to parallelize
    # over; below that the row equality above is the meaningful check.
    assert stage_x >= 5.0, f"acquisition stage only {stage_x:.2f}x faster"
    assert end_x >= 1.3, f"warm end-to-end only {end_x:.2f}x faster"
    if cpus >= SWEEP_WORKERS:
        assert par_x >= 2.0, f"{SWEEP_WORKERS}-worker sweep only {par_x:.2f}x"
