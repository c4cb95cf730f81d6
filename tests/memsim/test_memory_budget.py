"""Memory budgets of the prepass, the estimator, the cache kernel, the
span flush, the trace build and the archive read, in bytes per event
(or per op).

``estimate-cold``'s peak RSS is set inside the estimator and
``stream-attributed``'s inside the cache kernel and the span flush, so
their footprints are budgets, not accidents. Every number is measured
with ``tracemalloc`` (numpy reports its buffers to it), which counts
exact allocation sizes and does not depend on the allocator's
history, so the readings are deterministic:

- the bytes per event :func:`precompute` keeps alive;
- the bytes per event :func:`estimate_replay` peaks above the trace
  it is given (its own prepass, routes and both cache levels);
- the bytes per *piece* event it peaks above a trace of four copies of
  that trace (1,147,904 events, 4.4 default pieces): the estimator
  walks a trace in pieces of ``DEFAULT_SEGMENT_EVENTS`` and carries
  only each cache slot's last ``ways`` keys between them, so its peak
  is bounded by the piece, not the trace;
- the bytes per cache-routed event
  :meth:`CacheSystem.replay_cache_path` peaks above its inputs, on each
  batch of an in-core replay: the driver walks an in-core trace in
  segments of ``DEFAULT_SEGMENT_EVENTS``, so every batch holds at most
  that many events;
- the bytes per op :func:`lru_stage` peaks above its inputs, on a
  fixed stream of 400,000 ops with deletions (the L1 stage's shape);
- the bytes per span event :class:`SpoolingTraceBuilder` peaks above
  its raw batches while it closes one barrier span of 800,000 events
  (lockstep scatter, segment cuts and archive writes);
- the bytes per event :meth:`TraceBuilder.build` peaks above its 50
  closed spans (~800,000 events, 14 B each), and
  :meth:`SegmentedTrace.materialize` (``Trace.load``) peaks while it
  reads them back from 13 segments, the trace it returns included.

The fixed trace of the first three is PageRank on the wiki stand-in at
full scale (286,976 events, 16 cores, scaled configs). Readings:

==========  =========================  =========================
backend     precompute kept (B/event)  estimate peak (B/event)
==========  =========================  =========================
baseline    47.0 with int64 columns    89.2 with index gathers
            15.0 narrowed              37.2 mask-selected
            11.0 int32 lines           33.2 int32 lines
omega       47.0 with int64 columns    82.7 with index gathers
            18.0 narrowed              46.3 mask-selected
                                       42.0 int32 line offsets
            14.0 int32 lines           38.0 int32 lines
                                       33.2 in pieces
==========  =========================  =========================

(baseline's estimate peak reads 28.5 B/event in pieces: the first
piece holds 262,144 of the trace's 286,976 events.)

===========================  =====================  ================
estimate peak on 4 copies    whole trace at once    in pieces
(B/piece event)
===========================  =====================  ================
baseline                     144.7                  31.2
omega                        166.0                  37.2
===========================  =====================  ================

=============================  ===============  ===============
working set                    int64 stages     narrowed stages
=============================  ===============  ===============
kernel, baseline (B/event)     114.9            45.2
kernel, omega (B/event)        78.5             33.5
``lru_stage`` (B/op)           103.8            36.6
span flush (B/span event)      52.7             18.8
=============================  ===============  ===============

Walked in segments, the kernel's batches read 44.9 and 57.1 B/event on
baseline (262,144 and 24,832 events) and 33.3 and 49.4 on omega
(221,689 and 19,791 cache-routed events). The short last batch is
denser in directory ops (0.66 per event against 0.46) and peaks in the
directory stage; it read 62.1 and 55.2 while that stage's glue still
held each touched line as a Python int.

==============================  =======  ============  ================
working set (B/event)           int64    narrow,       narrow,
                                columns  concatenated  column by column
==============================  =======  ============  ================
build, above its closed spans   22.0     14.0          4.0
materialize                     44.2     28.2          15.1
==============================  =======  ============  ================

Each bound sits between the two readings of its row, nearer the
narrowed one (the prepass and estimator bounds between the narrowed
and the int32-lines readings; the per-piece bounds just above the
in-pieces readings, far below what a whole-trace pass reads).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import load_dataset
from repro.algorithms.registry import run_algorithm
from repro.ligra.segments import (
    DEFAULT_SEGMENT_EVENTS,
    SegmentedTrace,
    SpoolingTraceBuilder,
)
from repro.ligra.trace import AccessClass, Trace, TraceBuilder
from repro.memsim.cachestate import CacheSystem, lru_stage
from repro.memsim.estimate import estimate_replay
from repro.memsim.prepass import precompute

from ..property.test_kernel_parity import all_backend_factories

#: backend -> (precompute kept, estimate peak, kernel peak) bounds in
#: bytes per event, and the estimate peak on four copies of the trace
#: in bytes per piece event.
BUDGETS = {
    "baseline": (13.0, 35.0, 60.0, 40.0),
    "omega": (16.0, 40.0, 50.0, 45.0),
}
#: :func:`lru_stage`'s peak, bytes per op.
LRU_BUDGET = 40.0
#: The span flush's peak, bytes per span event.
FLUSH_BUDGET = 22.0
#: :meth:`TraceBuilder.build`'s peak above its closed spans, bytes per
#: event.
BUILD_BUDGET = 6.0
#: :meth:`SegmentedTrace.materialize`'s peak (the trace it returns
#: included), bytes per event.
MATERIALIZE_BUDGET = 18.0


@pytest.fixture(scope="module")
def workload():
    graph, _ = load_dataset("wiki", scale=1.0, seed=1)
    result = run_algorithm("pagerank", graph, num_cores=16,
                           chunk_size=32, trace=True)
    ranges = [(p.start_addr, p.region.end) for p in result.engine.vtx_props]
    factories = all_backend_factories(
        (result.trace, ranges, result.engine.vtxprop_bytes_per_vertex(),
         graph.num_vertices), num_cores=16,
    )
    return result.trace, factories


def _traced(fn):
    """(bytes still held by ``fn``'s result, peak bytes during ``fn``)."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    del result
    return current - base, peak - base


@pytest.mark.parametrize("name", sorted(BUDGETS))
class TestMemoryBudget:
    def test_precompute_keeps_narrow_columns(self, workload, name):
        trace, factories = workload
        backend = factories[name]()
        kept, _ = _traced(lambda: precompute(
            trace, backend.config, mapping=backend.prepass_mapping()
        ))
        per_event = kept / trace.num_events
        assert per_event <= BUDGETS[name][0], per_event

    def test_estimate_peak_above_trace(self, workload, name):
        trace, factories = workload
        backend = factories[name]()
        _, peak = _traced(lambda: estimate_replay(backend, trace))
        per_event = peak / trace.num_events
        assert per_event <= BUDGETS[name][1], per_event

    def test_estimate_peak_bounded_by_piece(self, workload, name):
        trace, factories = workload
        reps, n = 4, trace.num_events
        tiled = Trace(
            **{c: np.tile(getattr(trace, c), reps)
               for c in ("core", "addr", "size", "access_class", "flags",
                         "vertex")},
            barriers=np.concatenate([np.asarray(trace.barriers) + k * n
                                     for k in range(reps)]),
            regions=trace.regions,
        )
        assert tiled.num_events >= 4 * DEFAULT_SEGMENT_EVENTS
        backend = factories[name]()
        _, peak = _traced(lambda: estimate_replay(backend, tiled))
        per_piece_event = peak / DEFAULT_SEGMENT_EVENTS
        assert per_piece_event <= BUDGETS[name][3], per_piece_event

    def test_kernel_peak_above_inputs(self, workload, name, monkeypatch):
        trace, factories = workload
        batches = []
        replay_cache_path = CacheSystem.replay_cache_path

        def measured(self, cores, *args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            marks = replay_cache_path(self, cores, *args, **kwargs)
            batches.append((tracemalloc.get_traced_memory()[1] - base,
                            len(cores)))
            return marks

        monkeypatch.setattr(CacheSystem, "replay_cache_path", measured)
        _traced(lambda: factories[name]().replay(trace))
        assert len(batches) == -(-trace.num_events
                                 // DEFAULT_SEGMENT_EVENTS)
        for peak, events in batches:
            assert events <= DEFAULT_SEGMENT_EVENTS, events
            per_event = peak / events
            assert per_event <= BUDGETS[name][2], (events, per_event)


def test_lru_stage_peak_per_op():
    rng = np.random.default_rng(7)
    m = 400_000
    sets = rng.integers(0, 1024, m).astype(np.int32)
    lines = (rng.integers(0, 96, m) * 1024 + sets).astype(np.int32)
    writes = rng.random(m) < 0.3
    deletes = rng.random(m) < 0.1
    _, peak = _traced(lambda: lru_stage(sets, lines, writes, 4, deletes))
    per_op = peak / m
    assert per_op <= LRU_BUDGET, per_op


def test_span_flush_peak_per_event(tmp_path):
    rng = np.random.default_rng(3)
    builder = SpoolingTraceBuilder(tmp_path / "spool.npz",
                                   segment_events=1 << 16)
    # Trace the raw batches too, so freeing them counts.
    tracemalloc.start()
    try:
        events = 0
        for _ in range(50):
            for core in range(16):
                n = int(rng.integers(500, 1500))
                builder.append(core, rng.integers(0, 1 << 30, n) * 8, 8,
                               AccessClass.VTXPROP, write=bool(core & 1),
                               vertex=rng.integers(0, 1 << 20, n))
                events += n
        _, peak = _traced(builder.mark_barrier)
    finally:
        tracemalloc.stop()
    builder.finalize()
    per_event = peak / events
    assert per_event <= FLUSH_BUDGET, per_event


def _closed_spans(builder):
    """Append 50 barrier spans of 16 cores' narrow batches (~800k
    events) and close each; returns the event count."""
    rng = np.random.default_rng(3)
    events = 0
    for _ in range(50):
        for core in range(16):
            n = int(rng.integers(500, 1500))
            builder.append(core, rng.integers(0, 1 << 27, n) * 8, 8,
                           AccessClass.VTXPROP, write=bool(core & 1),
                           vertex=rng.integers(0, 1 << 20, n))
            events += n
        builder.mark_barrier()
    return events


def test_build_peak_per_event():
    builder = TraceBuilder()
    # Trace the spans too, so freeing them counts.
    tracemalloc.start()
    try:
        events = _closed_spans(builder)
        _, peak = _traced(builder.build)
    finally:
        tracemalloc.stop()
    per_event = peak / events
    assert per_event <= BUILD_BUDGET, per_event


def test_materialize_peak_per_event(tmp_path):
    builder = TraceBuilder()
    events = _closed_spans(builder)
    path = tmp_path / "t.npz"
    SegmentedTrace.from_trace(builder.build(), 1 << 16).save(path)
    _, peak = _traced(lambda: Trace.load(path))
    per_event = peak / events
    assert per_event <= MATERIALIZE_BUDGET, per_event
