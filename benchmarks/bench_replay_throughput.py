"""Replay-engine throughput: events/second through the layered engine.

The screened batch kernel (``CacheSystem._replay_kernel``: one
vectorized guaranteed-hit screen, exact batch stages for the L1s, the
directory, the prefetcher and the L2, and one vectorized fold of the
outcome log) replaced the per-event cache stage. This bench measures
replay throughput on the paper's headline workload (PageRank on the lj
stand-in) for the baseline and OMEGA backends and compares against two
references:

- the **pre-refactor** throughput of the seed tree's scalar loop on
  this workload (events decoded, classified, and routed one at a
  time), read from the first entry of the ``BENCH_replay_throughput``
  trajectory (the built-in constants only seed a fresh ledger), and
- the engine's own scalar cache oracle (a backend's ``scalar_cache``
  flag, the ``REPRO_SCALAR_CACHE=1`` path), which still pays per-event
  cache simulation but benefits from the vectorized pre-pass/routing — an
  in-process lower bound on the kernel's win.

Host normalization: raw events/second swings double-digit percentages
between runs of this suite on shared hardware, which made a fixed
"after / seed-constant" gate flaky. The oracle is measured *in the
same run* as the kernel, so the kernel/oracle ratio is host-stable;
multiplying it by the anchor ratio (oracle throughput recorded on the
same host and commit as the seed constants) recovers a seed-relative
speedup that does not move with machine load:

    normalized = (after / oracle_now) * (anchor_oracle / seed)

The same run also measures cache-path reuse: OMEGA and the locked
cache route the same stream to the same cache configuration, so with
one shared store handle the locked replay takes its cache-path result
from the store's in-memory memo. The pair is timed against one store
(``shared``) and against a fresh store per replay (``fresh``), and
``reuse_saving = 1 - shared / fresh`` is recorded next to the
kernel/oracle ratios. It is reported, not gated.

The acceptance bar is >=5x normalized on OMEGA and >=2.5x normalized
on the baseline. The bars differ because they measure different
things: the baseline's residual is essentially its true L1-miss set
(~42% of cache events on this workload must walk the L1 sets, the
directory and the prefetcher one at a time; the L2 and DRAM after
them are vectorized), which bounds its win — see docs/performance.md
for the arithmetic — while OMEGA's scratchpad routing shrinks the
cache-routed set enough for the screened kernel to clear 5x.
"""

import tempfile
import time

from repro.bench import bench_graph, format_table
from repro.bench.record import bench_baseline_context
from repro.config import SimConfig
from repro.algorithms.registry import run_algorithm
from repro.core.offload import microcode_for_algorithm
from repro.graph.reorder import reorder_nth_element
from repro.memsim.backends import (
    BaselineBackend,
    LockedCacheBackend,
    OmegaBackend,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.store import TraceStore

from conftest import REPO_ROOT, emit, record

#: Fallback seed-tree replay throughput on PageRank/lj (events/second):
#: the pre-refactor per-event loop at commit 296ad4d, best of 3. Used
#: only when the ``BENCH_replay_throughput`` trajectory is empty; an
#: existing ledger's first entry is authoritative.
SEED_EVENTS_PER_SEC = {"baseline": 234_000, "omega": 319_748}

#: Scalar-oracle throughput measured on the same host (and at the same
#: time) as the seed constants above. The anchor ties the in-run
#: kernel/oracle ratio back to the seed loop: on the seed host, the
#: oracle ran at these rates while the seed loop ran at
#: SEED_EVENTS_PER_SEC.
ANCHOR_ORACLE_EVENTS_PER_SEC = {"baseline": 457_030, "omega": 904_463}

#: Normalized-speedup acceptance bars (see module docstring for why
#: they differ).
SPEEDUP_BARS = {"baseline": 2.5, "omega": 5.0}

ROUNDS = 3


def _seed_floor():
    """The pre-refactor reference, from the ledger when it has one."""
    recorded = bench_baseline_context(
        "replay_throughput", REPO_ROOT, "seed_events_per_sec"
    )
    if isinstance(recorded, dict) and all(
        k in recorded for k in SEED_EVENTS_PER_SEC
    ):
        return {k: float(recorded[k]) for k in SEED_EVENTS_PER_SEC}
    return dict(SEED_EVENTS_PER_SEC)


def _best_seconds(make_hierarchy, trace, rounds=ROUNDS, scalar=False):
    best = float("inf")
    for _ in range(rounds):
        hierarchy = make_hierarchy()
        if scalar:
            hierarchy.scalar_cache = True
        start = time.perf_counter()
        hierarchy.replay(trace)
        best = min(best, time.perf_counter() - start)
    return best


def _reuse_seconds(make_omega, make_locked, trace, root,
                   rounds=ROUNDS):
    """Best omega-then-locked pair time, shared vs fresh store handles.

    Alternates the two arms each round so host drift hits both alike.
    Returns ``({arm: seconds}, {arm: locked MemStats})``.
    """
    best = {"shared": float("inf"), "fresh": float("inf")}
    stats = {}
    for _ in range(rounds):
        for arm in ("shared", "fresh"):
            shared = TraceStore(root).cache_path_memo
            omega, locked = make_omega(), make_locked()
            omega.cache_memo = shared
            locked.cache_memo = (
                shared if arm == "shared" else TraceStore(root).cache_path_memo
            )
            start = time.perf_counter()
            omega.replay(trace)
            out = locked.replay(trace)
            best[arm] = min(best[arm], time.perf_counter() - start)
            stats[arm] = (out.stats, out.kernel["reused"])
    return best, stats


def _measure():
    graph, _ = bench_graph("lj")
    bcfg = SimConfig.scaled_baseline()
    ocfg = SimConfig.scaled_omega()
    cores = bcfg.core.num_cores
    seed = _seed_floor()

    plain = run_algorithm("pagerank", graph, num_cores=cores,
                          chunk_size=32, trace=True)
    wgraph, _ = reorder_nth_element(graph, key="in")
    reord = run_algorithm("pagerank", wgraph, num_cores=cores,
                          chunk_size=32, trace=True)
    microcode = microcode_for_algorithm("pagerank")
    hot = hot_capacity_for(
        ocfg.scratchpad_total_bytes,
        reord.engine.vtxprop_bytes_per_vertex(),
        wgraph.num_vertices,
    )
    mapping = ScratchpadMapping(cores, hot, chunk_size=32)
    ranges_plain = [(p.start_addr, p.region.end)
                    for p in plain.engine.vtx_props]
    ranges_reord = [(p.start_addr, p.region.end)
                    for p in reord.engine.vtx_props]

    cases = {
        "baseline": (
            lambda: BaselineBackend(bcfg, dram_random_ranges=ranges_plain),
            plain.trace,
        ),
        "omega": (
            lambda: OmegaBackend(ocfg, mapping, microcode,
                                 dram_random_ranges=ranges_reord),
            reord.trace,
        ),
    }
    lcfg = SimConfig.scaled_omega(use_pisc=False, use_source_buffer=False)
    with tempfile.TemporaryDirectory() as root:
        reuse, locked_stats = _reuse_seconds(
            cases["omega"][0], lambda: LockedCacheBackend(lcfg, mapping),
            reord.trace, root,
        )
    # Reuse must be exact: the locked replay that took OMEGA's result
    # reports the counters of the one that replayed its own.
    assert locked_stats["shared"][0] == locked_stats["fresh"][0]
    assert locked_stats["shared"][1] > 0 == locked_stats["fresh"][1]

    rows = []
    results = {}
    for name, (make, trace) in cases.items():
        make(), make().replay(trace)  # warm-up
        batch = _best_seconds(make, trace)
        scalar = _best_seconds(make, trace, scalar=True)
        events = trace.num_events
        after = events / batch
        oracle = events / scalar
        raw = after / seed[name]
        normalized = (
            (after / oracle) * (ANCHOR_ORACLE_EVENTS_PER_SEC[name] / seed[name])
        )
        results[name] = {
            "events_per_sec": after,
            "oracle_events_per_sec": oracle,
            "speedup_raw": raw,
            "speedup_normalized": normalized,
        }
        rows.append(
            {
                "backend": name,
                "events": events,
                "seed ev/s": f"{seed[name]:,.0f}",
                "after ev/s": f"{after:,.0f}",
                "oracle ev/s": f"{oracle:,.0f}",
                "kernel/oracle": round(after / oracle, 2),
                "speedup raw": round(raw, 2),
                "speedup norm": round(normalized, 2),
                "bar": SPEEDUP_BARS[name],
            }
        )
    return rows, results, seed, reuse


def test_replay_throughput(benchmark):
    rows, results, seed, reuse = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    saving = 1.0 - reuse["shared"] / reuse["fresh"]
    text = format_table(
        rows, "Replay throughput — PageRank/lj, batch engine vs seed loop"
    )
    text += (
        f"omega then locked: {reuse['fresh']:.3f}s with a fresh store per"
        f" replay, {reuse['shared']:.3f}s with one shared store"
        f" (reuse saving {saving:.1%})\n"
    )
    text += (
        "\nseed = pre-refactor per-event loop (ledger floor; constants"
        " recorded at seed commit 296ad4d); after = screened batch"
        " kernel;\noracle = the REPRO_SCALAR_CACHE=1 reference path"
        " measured in the same run;\nspeedup norm = (after/oracle) *"
        " (anchor oracle/seed) — host-load-invariant (the gated"
        " metric)\n"
    )
    emit("replay_throughput", text)
    record(
        "replay_throughput",
        {
            "events_per_sec": {
                name: round(r["events_per_sec"], 1)
                for name, r in results.items()
            },
            "scalar_oracle_events_per_sec": {
                name: round(r["oracle_events_per_sec"], 1)
                for name, r in results.items()
            },
            "speedup_vs_seed": {
                name: round(r["speedup_raw"], 3)
                for name, r in results.items()
            },
            "speedup_normalized": {
                name: round(r["speedup_normalized"], 3)
                for name, r in results.items()
            },
            "kernel_oracle_ratio": {
                name: round(r["events_per_sec"]
                            / r["oracle_events_per_sec"], 3)
                for name, r in results.items()
            },
            "omega_locked_seconds": {
                arm: round(sec, 4) for arm, sec in reuse.items()
            },
            "reuse_saving": round(saving, 4),
        },
        context={
            "workload": "pagerank/lj",
            "seed_events_per_sec": seed,
            "anchor_oracle_events_per_sec": ANCHOR_ORACLE_EVENTS_PER_SEC,
            "speedup_bars": SPEEDUP_BARS,
            "rounds": ROUNDS,
        },
    )

    # The acceptance bars, on the host-normalized metric: >=5x on
    # OMEGA, >=2.5x on the baseline (whose residual is its true L1
    # miss set — the 5x bar is structurally unreachable there; see
    # docs/performance.md).
    for name, bar in SPEEDUP_BARS.items():
        assert results[name]["speedup_normalized"] > bar, (name, results)
