#!/usr/bin/env python3
"""Offline trace analysis: capture once, study anywhere.

The simulator is trace-driven, which means the expensive part — the
algorithm run — can be captured once and replayed through any number
of memory-subsystem designs or analyzed directly. This example saves a
PageRank trace to disk, reloads it, replays it through four designs,
and mines the raw event stream for the access-pattern facts the
paper's motivation section is built on.

Run:  python examples/trace_analysis.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SimConfig, load_dataset
from repro.algorithms import run_pagerank
from repro.bench import print_series, print_table
from repro.core.offload import microcode_for_algorithm
from repro.graph.reorder import reorder_nth_element
from repro.ligra.trace import (
    AccessClass,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    Trace,
)
from repro.memsim import (
    BaselineBackend,
    GraphPimBackend,
    LockedCacheBackend,
    OmegaBackend,
    ScratchpadMapping,
    compute_timing,
    hot_capacity_for,
)


def main() -> None:
    graph, spec = load_dataset("lj")
    rgraph, _ = reorder_nth_element(graph, key="in")
    result = run_pagerank(rgraph)

    # 1. Persist and reload.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pagerank_lj.npz"
        result.trace.save(path)
        size_kb = path.stat().st_size / 1024
        trace = Trace.load(path)
    print(f"captured {trace.num_events:,} events "
          f"({size_kb:.0f} KB)\n")

    # 2. Mine the raw stream (the paper's Section III facts).
    classes = trace.access_class
    mix = {
        "vtxProp": int((classes == int(AccessClass.VTXPROP)).sum()),
        "edgeList": int((classes == int(AccessClass.EDGELIST)).sum()),
        "nGraphData": int((classes == int(AccessClass.NGRAPH)).sum()),
    }
    print_series(mix, title="event mix by data structure", unit="events")
    atomics = int(((trace.flags & FLAG_ATOMIC) != 0).sum())
    src_reads = int(((trace.flags & FLAG_SRC_READ) != 0).sum())
    print(f"\natomic RMWs: {atomics:,} "
          f"({atomics / trace.num_events:.0%} of events)")
    print(f"source-vertex reads: {src_reads:,}")
    vtx_ids = trace.vtxprop_vertex_ids()
    vtx_ids = vtx_ids[vtx_ids >= 0]
    hot20 = int((vtx_ids < 0.2 * rgraph.num_vertices).sum())
    print(f"vtxProp accesses to top-20% vertices: "
          f"{hot20 / len(vtx_ids):.0%} (the power law at work)\n")

    # 3. Replay the same trace through four designs.
    capacity = hot_capacity_for(
        SimConfig.scaled_omega().scratchpad_total_bytes, 9,
        rgraph.num_vertices,
    )
    mapping = ScratchpadMapping(16, capacity, chunk_size=32)
    designs = {
        "baseline": BaselineBackend(SimConfig.scaled_baseline()),
        "omega": OmegaBackend(
            SimConfig.scaled_omega(), mapping,
            microcode_for_algorithm("pagerank"),
        ),
        "locked-cache": LockedCacheBackend(
            SimConfig.scaled_omega(use_pisc=False, use_source_buffer=False),
            mapping,
        ),
        "graphpim": GraphPimBackend(SimConfig.scaled_baseline()),
    }
    rows = []
    baseline_cycles = None
    for name, hierarchy in designs.items():
        out = hierarchy.replay(trace)
        timing = compute_timing(out, hierarchy.config)
        if baseline_cycles is None:
            baseline_cycles = timing.total_cycles
        rows.append(
            {
                "design": name,
                "cycles": round(timing.total_cycles),
                "speedup": round(baseline_cycles / timing.total_cycles, 2),
                "onchip KB": round(out.stats.onchip_traffic_bytes / 1024),
                "bottleneck": timing.bottleneck,
            }
        )
    print_table(rows, "one trace, four memory subsystems")
    print("\n(Replaying a saved trace sidesteps re-running the algorithm —"
          " handy for design-space sweeps and regression archives. Note"
          " that all four designs replay the popularity-REORDERED trace"
          " here; the standalone drivers give each design its natural"
          " input — e.g. GraphPIM runs the original ordering, where its"
          " hot vaults collide more — so headline numbers differ from"
          " benchmarks/bench_alternatives.py.)")


if __name__ == "__main__":
    main()
