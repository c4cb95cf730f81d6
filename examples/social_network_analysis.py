#!/usr/bin/env python3
"""Social-network analytics: the workload class OMEGA was built for.

Models an influence-analysis pipeline over a social graph (the paper's
intro scenario): rank users with PageRank, find communities with
connected components, and measure how the heterogeneous memory
subsystem changes each stage. Along the way it shows the structural
property everything rests on — the power-law concentration of accesses
onto a small hot set — using the library's characterization tools.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import RunRequest, compare_systems, load_dataset
from repro.algorithms import run_pagerank
from repro.core.characterization import access_fraction_to_top
from repro.graph import characterize


def main() -> None:
    graph, spec = load_dataset("orkut")
    ch = characterize(graph, spec.name)
    print("== the dataset ==")
    print(f"{spec.description}")
    print(f"|V|={ch.num_vertices}  |E|={ch.num_edges}  "
          f"top-20% in-degree connectivity: {ch.in_degree_connectivity:.1f}% "
          f"(paper's orkut: {spec.paper_in_connectivity}%)")

    # Where do the memory accesses actually go?
    result = run_pagerank(graph)
    hot = access_fraction_to_top(result.trace, graph)
    print(f"PageRank sends {hot:.1f}% of its vtxProp accesses to the "
          f"top 20% most-connected users")

    # Stage 1: influence ranking.
    print("\n== stage 1: influence ranking (PageRank) ==")
    pr = compare_systems(graph, RunRequest("pagerank", dataset=spec.name))
    rank = run_pagerank(graph, trace=False, max_iters=10,
                        tolerance=1e-9).value("rank")
    top_users = np.argsort(-rank)[:5]
    print(f"top influencers (vertex ids): {top_users.tolist()}")
    print(f"OMEGA speedup: {pr.speedup:.2f}x, "
          f"traffic cut {pr.traffic_reduction:.2f}x")

    # Stage 2: community structure (CC needs the symmetric graph).
    print("\n== stage 2: community structure (connected components) ==")
    undirected = graph.as_undirected()
    cc = compare_systems(undirected, RunRequest("cc", dataset=spec.name))
    from repro.algorithms import run_cc

    labels = run_cc(undirected, trace=False).value("labels")
    sizes = np.bincount(labels[labels >= 0])
    sizes = np.sort(sizes[sizes > 0])[::-1]
    print(f"components: {len(sizes)} (largest holds "
          f"{sizes[0] / graph.num_vertices:.0%} of users)")
    print(f"OMEGA speedup: {cc.speedup:.2f}x")

    # Stage 3: reachability from the top influencer.
    print("\n== stage 3: reach of the top influencer (BFS) ==")
    bfs = compare_systems(
        graph,
        RunRequest("bfs", dataset=spec.name,
                   alg_kwargs={"source": int(top_users[0])}),
    )
    from repro.algorithms import run_bfs

    levels = run_bfs(graph, source=int(top_users[0]), trace=False).value("level")
    print(f"reachable users: {(levels >= 0).sum()} "
          f"within {levels.max()} hops")
    print(f"OMEGA speedup: {bfs.speedup:.2f}x")

    print("\n== pipeline summary ==")
    total_base = pr.baseline.cycles + cc.baseline.cycles + bfs.baseline.cycles
    total_omega = pr.omega.cycles + cc.omega.cycles + bfs.omega.cycles
    print(f"whole-pipeline speedup: {total_base / total_omega:.2f}x")


if __name__ == "__main__":
    main()
