"""Section IX / Table V — OMEGA vs the neighboring design points.

Quantifies two comparisons the paper makes in prose:

- **Locked cache vs scratchpad** (Section IX): pinning hot vertices'
  cache lines avoids scratchpad hardware but "would still suffer from
  high on-chip communication overhead because data is inefficiently
  accessed on a cache-line granularity".
- **GraphPIM** (Table V): offloading atomics to off-chip memory frees
  the cores but cannot exploit the on-chip locality of natural graphs,
  which is exactly what OMEGA's scratchpads capture.
"""

from repro.bench import bench_graph, format_table
from repro.config import SimConfig
from repro.algorithms.pagerank import run_pagerank
from repro.core.offload import microcode_for_algorithm
from repro.core.context import RunRequest
from repro.core.system import run_system
from repro.memsim.backends import DynamicScratchpadBackend
from repro.memsim.core_model import compute_timing
from repro.memsim.scratchpad import hot_capacity_for

from conftest import emit

DATASETS = ("lj", "wiki")


def _dynamic_cycles(graph) -> float:
    """Section VI's dynamic hot-set identification, on the ORIGINAL
    vertex order (its whole point is skipping the reordering pass)."""
    cfg = SimConfig.scaled_omega()
    result = run_pagerank(graph, num_cores=cfg.core.num_cores, chunk_size=32)
    capacity = hot_capacity_for(cfg.scratchpad_total_bytes, 9,
                                graph.num_vertices)
    hierarchy = DynamicScratchpadBackend(
        cfg, capacity, microcode_for_algorithm("pagerank")
    )
    out = hierarchy.replay(result.trace)
    return compute_timing(out, cfg).total_cycles


def _rows(sims):
    rows = []
    for ds in DATASETS:
        graph, _ = bench_graph(ds)
        base = sims.run("pagerank", ds, SimConfig.scaled_baseline())
        omega = sims.run("pagerank", ds, SimConfig.scaled_omega())
        locked = run_system(
            graph, RunRequest("pagerank", backend="locked", dataset=ds)
        )
        pim = run_system(
            graph, RunRequest("pagerank", backend="graphpim", dataset=ds)
        )
        for rep in (base, omega, locked, pim):
            rows.append(
                {
                    "dataset": ds,
                    "system": rep.system,
                    "speedup": round(base.cycles / rep.cycles, 2),
                    "onchip MB": round(
                        rep.stats.onchip_traffic_bytes / 1e6, 2
                    ),
                    "dram MB": round(rep.stats.dram_bytes / 1e6, 2),
                }
            )
        rows.append(
            {
                "dataset": ds,
                "system": "dynamic-sp (no reorder)",
                "speedup": round(base.cycles / _dynamic_cycles(graph), 2),
                "onchip MB": "",
                "dram MB": "",
            }
        )
    return rows


def test_alternative_designs(benchmark, sims):
    rows = benchmark.pedantic(lambda: _rows(sims), rounds=1, iterations=1)
    text = format_table(
        rows, "Section IX / Table V — design-point comparison (PageRank)"
    )
    text += (
        "\npaper: locked caches keep the line-granularity traffic;"
        " PIM designs forgo on-chip locality; OMEGA beats both\n"
    )
    emit("alternatives", text)

    for ds in DATASETS:
        by_system = {
            r["system"]: r for r in rows if r["dataset"] == ds
        }
        omega = by_system["omega-scaled"]
        locked = by_system["locked-cache"]
        pim = by_system["graphpim"]
        # All three beat the baseline...
        assert omega["speedup"] > 1.0
        assert locked["speedup"] > 1.0
        assert pim["speedup"] > 1.0
        # ...but OMEGA beats both alternatives.
        assert omega["speedup"] > locked["speedup"]
        assert omega["speedup"] > pim["speedup"]
        # The paper's specific mechanism: the locked cache moves far
        # more on-chip bytes than OMEGA's word packets.
        assert locked["onchip MB"] > omega["onchip MB"] * 1.3
        # Section VI: dynamic identification approaches the static
        # mapping without preprocessing (but pays tag overhead, which
        # is why the paper chose static reordering).
        dyn = by_system["dynamic-sp (no reorder)"]
        assert dyn["speedup"] > 1.0
        assert dyn["speedup"] <= omega["speedup"] + 0.15
