"""Telemetry overhead: replay throughput with observability off vs on.

The `repro.obs` instrumentation threads through the Ligra engine, the
replay engine, and the system driver. With the default no-op tracer
and registry installed, an uninstrumented run must pay only a handful
of null-object calls per *phase* — the acceptance bar is <3% replay
throughput regression versus the pre-telemetry engine. This bench
measures three configurations on the headline workload (PageRank/lj):

- **off**: defaults — null tracer, null registry, no sampler (the
  configuration every existing caller gets),
- **sampled**: a `ReplaySampler` windowing the replay (~64 windows),
- **full**: sampler + live `SpanTracer` + live `MetricsRegistry`.

The disabled path's cost is measured in the same run: an ``off``
replay is repeated under a null tracer that counts the spans it opens,
that many null span entries are timed on their own, and their total
must stay below ``MAX_DISABLED_OVERHEAD`` of the ``off`` replay.
"""

import time

from repro.bench import bench_graph, format_table
from repro.config import SimConfig
from repro.algorithms.registry import run_algorithm
from repro.core.offload import microcode_for_algorithm
from repro.graph.reorder import reorder_nth_element
from repro.memsim.backends import OmegaBackend
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.obs import (
    MetricsRegistry,
    ReplaySampler,
    SpanTracer,
    get_tracer,
    use_registry,
    use_tracer,
)
from repro.obs.tracer import NullTracer

from conftest import emit

ROUNDS = 5

#: Allowed replay-throughput regression with telemetry disabled.
MAX_DISABLED_OVERHEAD = 0.03


def _setup():
    graph, _ = bench_graph("lj")
    ocfg = SimConfig.scaled_omega()
    cores = ocfg.core.num_cores
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
    ranges = [(p.start_addr, p.region.end) for p in reord.engine.vtx_props]

    def make():
        return OmegaBackend(ocfg, mapping, microcode,
                            dram_random_ranges=ranges)

    return make, reord.trace


def _best_seconds(make, trace, rounds=ROUNDS, sampler_factory=None):
    best = float("inf")
    for _ in range(rounds):
        hierarchy = make()
        sampler = sampler_factory() if sampler_factory else None
        start = time.perf_counter()
        hierarchy.replay(trace, sampler=sampler)
        best = min(best, time.perf_counter() - start)
    return best


class _CountingNullTracer(NullTracer):
    """The disabled tracer, counting the spans opened through it."""

    def __init__(self) -> None:
        self.spans = 0

    def span(self, name: str, cat: str = "run", **args):
        self.spans += 1
        return super().span(name, cat, **args)


def _null_span_seconds(count: int, rounds: int = ROUNDS) -> float:
    """Best time of ``count`` null span entries, made the way the
    replay path makes them (look up the tracer, enter, exit)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(count):
            with get_tracer().span("stage", cat="replay"):
                pass
        best = min(best, time.perf_counter() - start)
    return best


def _measure():
    make, trace = _setup()
    make().replay(trace)  # warm-up
    counting = _CountingNullTracer()
    with use_tracer(counting):
        make().replay(trace)

    off = _best_seconds(make, trace)
    sampled = _best_seconds(make, trace, sampler_factory=ReplaySampler)
    with use_tracer(SpanTracer()), use_registry(MetricsRegistry()):
        full = _best_seconds(make, trace, sampler_factory=ReplaySampler)

    events = trace.num_events
    rows = [
        {"configuration": name,
         "events/s": f"{events / sec:,.0f}",
         "seconds": round(sec, 4),
         "vs off": f"{sec / off:.3f}x"}
        for name, sec in (("off (defaults)", off),
                          ("sampled (~64 windows)", sampled),
                          ("full (sampler+tracer+metrics)", full))
    ]
    disabled = _null_span_seconds(counting.spans)
    return rows, off, sampled, full, counting.spans, disabled


def test_obs_overhead(benchmark):
    rows, off, sampled, full, spans, disabled = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    text = format_table(
        rows, "Telemetry overhead — OMEGA replay, PageRank/lj"
    )
    text += (
        "\noff = null tracer/registry, no sampler (every pre-telemetry"
        " call site);\nsampled/full pay per-window snapshot cost, never"
        " per-event cost\n"
        f"disabled path: {spans} null spans per off replay,"
        f" {disabled * 1e6:.1f} us ({disabled / off:.4%} of off)\n"
    )
    emit("obs_overhead", text)

    # The disabled path is the same replay plus the null spans it opens;
    # their cost, measured on its own, must stay under the bar.
    assert off > 0
    assert spans > 0
    assert disabled < MAX_DISABLED_OVERHEAD * off
    # Windowed sampling re-slices per window; generous bound, it only
    # runs when explicitly requested.
    assert sampled < off * 3.0
    assert full < off * 3.5
