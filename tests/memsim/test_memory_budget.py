"""Memory budgets of the prepass and the estimator, in bytes per event.

``estimate-cold``'s peak RSS is set inside the estimator, so its
footprint is a budget, not an accident. Both numbers are measured
with ``tracemalloc`` (numpy reports its buffers to it), which counts
exact allocation sizes and does not depend on the allocator's
history, so the readings are deterministic:

- the bytes per event :func:`precompute` keeps alive;
- the bytes per event :func:`estimate_replay` peaks above the trace
  it is given (its own prepass, routes and both cache levels).

The fixed trace is PageRank on the wiki stand-in at full scale
(286,976 events, 16 cores, scaled configs). Readings on it:

==========  =========================  =========================
backend     precompute kept (B/event)  estimate peak (B/event)
==========  =========================  =========================
baseline    47.0 with int64 columns    89.2 with index gathers
            15.0 narrowed              37.2 mask-selected
omega       47.0 with int64 columns    82.7 with index gathers
            18.0 narrowed              46.3 mask-selected
==========  =========================  =========================

Each bound sits between the two readings, nearer the narrowed one.
"""

import gc
import tracemalloc

import pytest

from repro import load_dataset
from repro.algorithms.registry import run_algorithm
from repro.memsim.estimate import estimate_replay
from repro.memsim.prepass import precompute

from ..property.test_kernel_parity import all_backend_factories

#: backend -> (precompute kept, estimate peak) bounds in bytes per event.
BUDGETS = {
    "baseline": (20.0, 45.0),
    "omega": (22.0, 55.0),
}


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
