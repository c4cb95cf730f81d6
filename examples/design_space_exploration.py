#!/usr/bin/env python3
"""Design-space exploration: which OMEGA ingredients buy what?

Architects rarely adopt a proposal wholesale. This example sweeps the
design space the paper explores piecemeal — scratchpad capacity
(Fig 19), PISC offloading (Section X-A), the source vertex buffer
(Section V-C), and the mapping-chunk match (Section V-D) — on one
workload, and prints a component-attribution table.

Run:  python examples/design_space_exploration.py
"""

from repro import RunRequest, SimConfig, compare_systems, load_dataset
from repro.bench import print_table


def main() -> None:
    graph, spec = load_dataset("lj", weighted=True)
    print(f"workload: SSSP on {spec.name} "
          f"({graph.num_vertices} vertices, {graph.num_edges} arcs)\n")

    configs = {
        "full OMEGA": SimConfig.scaled_omega(),
        "no PISC (storage only)": SimConfig.scaled_omega(use_pisc=False),
        "no source buffer": SimConfig.scaled_omega(use_source_buffer=False),
        "half scratchpads": SimConfig.scaled_omega().with_scratchpad_bytes(512),
        "quarter scratchpads": SimConfig.scaled_omega().with_scratchpad_bytes(256),
    }

    rows = []
    for label, cfg in configs.items():
        cmp = compare_systems(
            graph, RunRequest("sssp", dataset=spec.name), omega_config=cfg
        )
        omega = cmp.omega
        rows.append(
            {
                "configuration": label,
                "speedup": round(cmp.speedup, 2),
                "hot fraction": round(omega.hot_fraction, 2),
                "srcbuf hits": omega.stats.srcbuf_hits,
                "offloaded atomics": omega.stats.atomics_offloaded,
                "bottleneck": omega.timing.bottleneck,
            }
        )
    print_table(rows, "SSSP design-space sweep (vs same baseline)")

    # Chunk matching (Section V-D): the scratchpad mapping should
    # mirror the OpenMP schedule.
    rows = []
    for label, sp_chunk in (("matched (32)", 32), ("mismatched (1)", 1)):
        cmp = compare_systems(
            graph,
            RunRequest("sssp", dataset=spec.name, chunk_size=32,
                       sp_chunk_size=sp_chunk),
        )
        stats = cmp.omega.stats
        rows.append(
            {
                "sp mapping chunk": label,
                "plain remote SP share": round(stats.sp_plain_remote_share, 3),
                "speedup": round(cmp.speedup, 2),
            }
        )
    print_table(rows, "Mapping-chunk match (Section V-D)")

    print("\nReading the table: PISC offloading carries most of the win;")
    print("the source buffer matters for SSSP because it re-reads each")
    print("source's ShortestLen once per outgoing edge; capacity mostly")
    print("moves the hot fraction, with diminishing returns past ~20%.")


if __name__ == "__main__":
    main()
