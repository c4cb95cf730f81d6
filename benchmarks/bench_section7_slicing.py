"""Section VII — scaling scratchpad usage to large graphs via slicing.

The paper names three strategies: (1) store only what fits (its
evaluated configuration), (2) plain slicing (every slice's vtxProp
fits), and (3) power-law-aware slicing (only each slice's top 20%
must fit, cutting slice count ~5x). This bench measures all three on
the uk stand-in, whose hot set overflows the scaled scratchpads.
"""

from repro.bench import bench_graph, format_table
from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.core.sliced import run_sliced
from repro.core.system import run_system

from conftest import emit

DATASET = "uk"
SCALE = 0.5  # 16k vertices: top-20% = 3.3k > 1.8k scratchpad capacity


def _rows(sims):
    graph, _ = bench_graph(DATASET, scale=SCALE)
    base = run_system(
        graph, RunRequest("pagerank", dataset=DATASET),
        SimConfig.scaled_baseline(),
    )
    unsliced = run_system(
        graph, RunRequest("pagerank", dataset=DATASET),
        SimConfig.scaled_omega(),
    )
    plain = run_sliced(
        graph, RunRequest("pagerank", dataset=DATASET), power_law_aware=False
    )
    aware = run_sliced(
        graph, RunRequest("pagerank", dataset=DATASET), power_law_aware=True
    )
    return [
        {"strategy": "baseline CMP", "slices": 1,
         "cycles": round(base.cycles), "speedup": 1.0},
        {"strategy": "approach 1: store what fits", "slices": 1,
         "cycles": round(unsliced.cycles),
         "speedup": round(base.cycles / unsliced.cycles, 2)},
        {"strategy": "approach 2: plain slicing",
         "slices": plain.num_slices, "cycles": round(plain.total_cycles),
         "speedup": round(base.cycles / plain.total_cycles, 2)},
        {"strategy": "approach 3: power-law-aware slicing",
         "slices": aware.num_slices, "cycles": round(aware.total_cycles),
         "speedup": round(base.cycles / aware.total_cycles, 2)},
    ]


def test_section7_slicing(benchmark, sims):
    rows = benchmark.pedantic(lambda: _rows(sims), rounds=1, iterations=1)
    text = format_table(
        rows, "Section VII — scaling strategies (PageRank, uk stand-in)"
    )
    text += ("\npaper: power-law-aware slicing cuts slice count ~5x;"
             " evaluation used approach 1\n")
    emit("section7_slicing", text)
    by_strategy = {r["strategy"]: r for r in rows}
    plain = by_strategy["approach 2: plain slicing"]
    aware = by_strategy["approach 3: power-law-aware slicing"]
    fits = by_strategy["approach 1: store what fits"]
    # The 1/hot_fraction slice-count reduction (paper's 5x claim,
    # bounded by the graph actually running out).
    assert plain["slices"] >= 3 * aware["slices"]
    # Fewer slices -> fewer per-pass fixed costs -> faster.
    assert aware["cycles"] < plain["cycles"]
    # Power-law-aware slicing competes with (here: beats) the
    # overflowed store-what-fits configuration.
    assert aware["speedup"] > 0.9 * fits["speedup"]
    # Everything still beats the baseline except possibly plain slicing.
    assert aware["speedup"] > 1.0
    assert fits["speedup"] > 1.0
