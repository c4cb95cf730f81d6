#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline result in one minute.

Loads the ljournal-2008 stand-in, runs PageRank through both the
baseline CMP and the OMEGA memory subsystem, and prints the headline
ratios (speedup, on-chip traffic reduction, DRAM bandwidth improvement,
memory-system energy saving).

Run:  python examples/quickstart.py
"""

from repro import RunRequest, compare_systems, load_dataset


def main() -> None:
    graph, spec = load_dataset("lj")
    print(f"dataset: {spec.name} — {spec.description}")
    print(f"graph:   {graph.num_vertices} vertices, {graph.num_edges} arcs")

    cmp = compare_systems(graph, RunRequest("pagerank", dataset=spec.name))

    base, omega = cmp.baseline, cmp.omega
    print()
    print(f"baseline CMP cycles:      {base.cycles:,.0f}")
    print(f"OMEGA cycles:             {omega.cycles:,.0f}")
    print(f"scratchpad hot fraction:  {omega.hot_fraction:.0%} of vertices")
    print()
    print(f"speedup:                  {cmp.speedup:.2f}x   (paper: ~2.8x for PageRank)")
    print(f"on-chip traffic cut:      {cmp.traffic_reduction:.2f}x   (paper: >3x)")
    print(f"DRAM bandwidth improved:  {cmp.dram_bw_improvement:.2f}x   (paper: 2.28x)")
    print(f"memory energy saved:      {cmp.energy_saving:.2f}x   (paper: ~2.5x)")
    print()
    print(f"baseline LLC hit rate:    {base.stats.l2_hit_rate:.1%}   (paper: ~44%)")
    print(f"OMEGA last-level hit:     {omega.stats.last_level_hit_rate:.1%}   (paper: >75%)")
    print(f"atomics offloaded to PISCs: "
          f"{omega.stats.atomics_offloaded:,} of {omega.stats.atomics_total:,}")


if __name__ == "__main__":
    main()
