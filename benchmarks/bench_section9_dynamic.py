"""Section IX — OMEGA on dynamic graphs.

The paper argues OMEGA adapts to dynamic graphs "by using a reordering
algorithm to re-identify the popular vertices", deferring evaluation.
This bench runs the study: grow the lj stand-in by 25% under the
natural preferential-attachment model and under adversarial uniform
churn, then compare OMEGA (a) with the stale hot mapping from before
the growth and (b) after re-identifying the hot set.
"""

from repro.bench import bench_graph, format_table
from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.core.system import run_system
from repro.graph.dynamic import (
    DynamicGraph,
    hot_set_overlap,
    preferential_edges,
    uniform_edges,
)
from repro.graph.reorder import reorder_nth_element

from conftest import emit


def _grown(graph, kind: str):
    dyn = DynamicGraph(graph)
    gen = preferential_edges if kind == "preferential" else uniform_edges
    src, dst = gen(graph, graph.num_edges // 4, seed=7)
    dyn.add_edges(src, dst)
    return dyn.snapshot()


def _rows():
    graph, _ = bench_graph("lj")
    # OMEGA's deployed state: the graph as reordered at install time.
    deployed, _ = reorder_nth_element(graph, key="in")
    baseline_cfg = SimConfig.scaled_baseline()
    omega_cfg = SimConfig.scaled_omega()

    rows = []
    for kind in ("preferential", "uniform"):
        new_graph = _grown(deployed, kind)
        overlap = hot_set_overlap(deployed, new_graph)
        base = run_system(
            new_graph, RunRequest("pagerank", dataset="lj"), baseline_cfg
        )
        # Stale mapping: keep the old ordering (ids 0..k are the OLD
        # hot set) — no re-reordering pass.
        stale = run_system(
            new_graph, RunRequest("pagerank", dataset="lj", reorder=False),
            omega_cfg,
        )
        # Re-identified mapping: run the nth-element pass again.
        fresh = run_system(
            new_graph, RunRequest("pagerank", dataset="lj", reorder=True),
            omega_cfg,
        )
        rows.append(
            {
                "growth model": kind,
                "hot-set overlap": round(overlap, 3),
                "speedup (stale mapping)": round(base.cycles / stale.cycles, 2),
                "speedup (re-identified)": round(base.cycles / fresh.cycles, 2),
            }
        )
    return rows


def test_section9_dynamic_graphs(benchmark, sims):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)
    text = format_table(
        rows, "Section IX — dynamic graphs (+25% edges, PageRank on lj)"
    )
    text += ("\npaper: re-identifying popular vertices restores the static"
             " benefit; preferential attachment keeps hot sets stable\n")
    emit("section9_dynamic", text)
    by_kind = {r["growth model"]: r for r in rows}
    pref = by_kind["preferential"]
    unif = by_kind["uniform"]
    # Natural growth keeps the hot set nearly intact...
    assert pref["hot-set overlap"] > 0.8
    # ...so the stale mapping retains most of the benefit.
    assert pref["speedup (stale mapping)"] > 0.85 * pref["speedup (re-identified)"]
    # Adversarial churn drifts faster than preferential growth.
    assert unif["hot-set overlap"] <= pref["hot-set overlap"]
    # Re-identification never hurts.
    for r in rows:
        assert r["speedup (re-identified)"] >= r["speedup (stale mapping)"] - 0.1
        assert r["speedup (re-identified)"] > 1.0
