"""The seed-1 counter grid: every stored benchmark cell, rebuilt exactly.

``perfbench/expected/<workload>-seed1.json`` pins every ``MemStats``
field plus ``total_cycles`` of 25 Table II x backend cells, every
``ReplayEstimate`` field of 6 estimator cells and the counters of 2
streamed, attributed cells. The parity suites (kernel == oracle,
streamed == in-core) are relative, so a change that moves counters the
same way on both sides passes them; this grid is the absolute check.
The cells are rebuilt here from the workload definitions (datasets,
seeds, drivers, contexts) and compared with tolerance 0. The JSON is
read directly; seed 2 stays held out for the benchmark.

A counter-moving change must re-record both seeds in its own change
(``python3 perfbench/run.py --workload W --seed N --record-expected``)
and say why.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import RunContext, RunRequest, load_dataset
from repro.core.system import estimate_system, run_backends, run_system
from repro.graph.generators import rmat_graph
from repro.store import TraceStore

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
SEED = 1
BACKENDS = ("baseline", "omega", "locked", "graphpim", "dynamic")


def _expected(workload):
    return json.loads((EXPECTED / f"{workload}-seed{SEED}.json").read_text())


def _json(doc):
    """Normalize tuples/int keys exactly as the stored JSON did."""
    return json.loads(json.dumps(doc))


def _replay_counters(report):
    stats = report.stats
    out = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    out["total_cycles"] = report.timing.total_cycles
    return _json(out)


def _mismatches(expected, got):
    assert set(got) == set(expected)
    return {
        cell: sorted(k for k in expected[cell]
                     if got[cell].get(k) != expected[cell][k])
        for cell in expected
        if got[cell] != expected[cell]
    }


def _store(tmp_path_factory, name):
    return TraceStore(tmp_path_factory.mktemp(name), capacity_bytes=1 << 34)


@pytest.mark.slow
def test_sweep_warm_cells(tmp_path_factory):
    """25 cells through one shared store: locked reuses omega's cache
    path, so the grid also pins the reused counters."""
    expected = _expected("sweep-warm")
    context = RunContext(store=_store(tmp_path_factory, "sweep"))
    got, reused = {}, {}
    for alg, ds in sorted({tuple(c.split("/")[:2]) for c in expected}):
        graph, _ = load_dataset(ds, seed=SEED, weighted=(alg == "sssp"))
        reports = run_backends(graph, RunRequest(algorithm=alg, dataset=ds),
                               BACKENDS, context=context)
        for name, report in reports.items():
            got[f"{alg}/{ds}/{name}"] = _replay_counters(report)
            reused[f"{alg}/{ds}/{name}"] = report.replay.kernel["reused"]
    assert not _mismatches(expected, got)
    assert all(reused[c] > 0 for c in reused if c.endswith("/locked"))


@pytest.mark.slow
def test_estimate_cold_cells(tmp_path_factory):
    expected = _expected("estimate-cold")
    context = RunContext(store=_store(tmp_path_factory, "estimate"))
    got = {}
    for cell in sorted(expected):
        _, ds, backend = cell.split("/")
        graph, _ = load_dataset(ds, seed=SEED)
        est = estimate_system(
            graph, RunRequest(algorithm="pagerank", backend=backend,
                              dataset=ds),
            context=context,
        )
        doc = dataclasses.asdict(est)
        doc["route_counts"] = {str(k): v for k, v in est.route_counts.items()}
        got[cell] = _json(doc)
    assert not _mismatches(expected, got)


@pytest.mark.slow
def test_streamed_attributed_cells(tmp_path_factory):
    """Cold out-of-core PageRank on RMAT-14 (edge factor 16, 4
    iterations, 262144-event segments) with attribution on."""
    expected = _expected("stream-attributed")
    graph = rmat_graph(14, edge_factor=16, seed=SEED)
    context = RunContext(
        store=_store(tmp_path_factory, "stream"), segment_events=262144,
        attribution=True,
    )
    got = {}
    for backend in ("baseline", "omega"):
        report = run_system(
            graph,
            RunRequest(algorithm="pagerank", backend=backend,
                       dataset="rmat14", alg_kwargs={"max_iters": 4}),
            context=context,
        )
        assert report.num_segments > 1
        got[f"pagerank/rmat14/{backend}"] = _replay_counters(report)
    assert not _mismatches(expected, got)
