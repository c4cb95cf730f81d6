"""The estimator walks its trace in pieces and still equals the whole.

:func:`repro.memsim.estimate.estimate_replay` reads a trace the way
replay streams it, one segment (or, in core, one piece of
``DEFAULT_SEGMENT_EVENTS``) at a time, with each L1 and L2 slot's last
``ways`` keys carried into the next piece. The reuse-gap rule looks
back at most ``ways`` accesses in a slot, so every
:class:`ReplayEstimate` field must equal the whole-trace gather oracle
of ``test_estimate_equivalence`` however the trace is cut:

- the look-back rule itself, on random streams cut at random points;
- all five backends, pieces of 1, 7, 5,000 events and the default;
- a reuse whose ``ways`` window straddles a piece boundary, and a
  piece with no cache-routed event between two that have some;
- ``estimate_system`` streamed (``RunContext.segment_events``) equals
  in-core, and a cold streamed estimate leaves a store entry that a
  later ``run_system`` hits.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import run_algorithm
from repro.core.context import RunContext, RunRequest
from repro.core.system import estimate_system, run_system
from repro.graph.generators import rmat_graph
from repro.ligra.segments import DEFAULT_SEGMENT_EVENTS, SegmentedTrace
from repro.ligra.trace import FLAG_ATOMIC, AccessClass, Trace
from repro.memsim.estimate import _look_back, _new_carry, estimate_replay
from repro.store import TraceStore

from .test_estimate import _reference_slot_hits
from .test_estimate_equivalence import gather_estimate
from .test_kernel_parity import all_backend_factories

BACKENDS = ["baseline", "omega", "locked", "graphpim", "dynamic"]
NCORES = 16


def _same(got, want):
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.fixture(scope="module")
def workload():
    graph = rmat_graph(9, edge_factor=8, seed=11)
    result = run_algorithm("pagerank", graph, num_cores=NCORES,
                           chunk_size=32, trace=True)
    ranges = [(p.start_addr, p.region.end) for p in result.engine.vtx_props]
    bpv = result.engine.vtxprop_bytes_per_vertex()
    return result.trace, all_backend_factories(
        (result.trace, ranges, bpv, graph.num_vertices), NCORES)


class TestPiecesEqualWhole:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("size", [5000, DEFAULT_SEGMENT_EVENTS])
    def test_large_pieces(self, workload, name, size):
        trace, factories = workload
        want = gather_estimate(factories[name](), trace)
        assert want.cache_events > 0
        _same(estimate_replay(factories[name](),
                              SegmentedTrace.from_trace(trace, size)), want)
        if size == DEFAULT_SEGMENT_EVENTS:
            # An in-core trace is walked in default pieces.
            _same(estimate_replay(factories[name](), trace), want)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("size", [1, 7])
    def test_tiny_pieces(self, workload, name, size):
        trace, factories = workload
        head = trace.slice(0, 3000)
        want = gather_estimate(factories[name](), head)
        assert want.l1_hits > 0 and want.l2_hits > 0
        _same(estimate_replay(factories[name](),
                              SegmentedTrace.from_trace(head, size)), want)

    def test_several_default_pieces(self, workload):
        """A trace of more than one default piece, tiled from the
        workload so carried keys meet their reuses again."""
        trace, factories = workload
        reps = -(-2 * DEFAULT_SEGMENT_EVENTS // trace.num_events) + 1
        cols = {name: np.tile(getattr(trace, name), reps)
                for name in ("core", "addr", "size", "access_class",
                             "flags", "vertex")}
        tiled = Trace(**cols, regions=trace.regions)
        assert tiled.num_events > 2 * DEFAULT_SEGMENT_EVENTS
        for name in ("baseline", "omega"):
            _same(estimate_replay(factories[name](), tiled),
                  gather_estimate(factories[name](), tiled))


def _one_core_trace(addrs):
    """Plain edge-array reads on core 0."""
    n = len(addrs)
    return Trace(
        core=np.zeros(n, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.full(n, int(AccessClass.NGRAPH), dtype=np.int8),
        flags=np.zeros(n, dtype=np.int8),
        vertex=np.full(n, -1),
    )


def _chained(slots, keys, ways, cuts):
    """``_look_back`` over ``slots``/``keys`` cut at ``cuts``."""
    out, lo = [], 0
    carry = _new_carry(int(slots.max(initial=-1)) + 1, ways)
    for hi in list(cuts) + [len(slots)]:
        hits, carry = _look_back(slots[lo:hi], keys[lo:hi], ways, carry)
        out += hits.tolist()
        lo = hi
    return out, carry


def _carried(carry, slot):
    """A slot's carried keys, oldest first."""
    table, filled, head = carry
    ways = table.shape[1]
    return [int(table[slot, (head[slot] - filled[slot] + i) % ways])
            for i in range(filled[slot])]


class TestLookBack:
    @pytest.mark.parametrize("seed", range(40))
    def test_cut_streams_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 150))
        slots = rng.integers(0, int(rng.integers(1, 6)), n).astype(np.int16)
        base = (1 << 40) if seed % 3 == 0 else 0
        keys = base + rng.integers(0, int(rng.integers(1, 9)), n)
        cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 12))))
        for ways in (0, 1, 2, 4, 8):
            got, _ = _chained(slots, keys, ways, cuts)
            assert got == _reference_slot_hits(slots, keys, ways)

    def test_carry_holds_each_slots_last_ways_keys(self):
        slots = np.array([0, 1, 0, 0, 1, 0, 0], dtype=np.int16)
        keys = np.array([1, 9, 2, 3, 8, 4, 5], dtype=np.int32)
        _, carry = _look_back(slots, keys, 3, _new_carry(3, 3))
        # Slot 2 is never touched.
        assert [_carried(carry, s) for s in range(3)] == [
            [3, 4, 5], [9, 8], []]
        # A second piece's keys follow the carried ones.
        _look_back(slots[:2], np.array([6, 7]), 3, carry)
        assert [_carried(carry, s) for s in range(3)] == [
            [4, 5, 6], [9, 8, 7], []]

    def test_carried_int32_keys_spanning_past_int32(self):
        """Carried keys are the keys, not their wrapped offsets."""
        lo, hi = -2**31, 2**31 - 1
        keys = np.array([lo, hi, hi, lo], dtype=np.int32)
        slots = np.zeros(4, dtype=np.int16)
        _, carry = _look_back(slots[:2], keys[:2], 4, _new_carry(1, 4))
        assert _carried(carry, 0) == [lo, hi]
        got, _ = _chained(slots, keys, 4, [2])
        assert got == [False, False, True, True]


class TestCarry:
    def test_reuse_window_straddles_a_boundary(self):
        """Lines A B C D | A in one L1 set: A's reuse is exactly
        ``ways`` accesses back, all of them in the previous piece."""
        factories = all_backend_factories((_one_core_trace([0]), [], 8, 64),
                                          NCORES)
        backend = factories["baseline"]()
        ways = backend.config.l1.ways
        stride = backend.config.l1.num_sets * backend.config.l1.line_bytes
        lines = list(range(ways)) + [0]
        trace = _one_core_trace([0x4000_0000 + k * stride for k in lines])
        want = gather_estimate(factories["baseline"](), trace)
        assert want.l1_hits == 1
        for size in (1, 2, ways):
            got = estimate_replay(factories["baseline"](),
                                  SegmentedTrace.from_trace(trace, size))
            _same(got, want)

    @pytest.mark.parametrize("name", ["omega", "graphpim"])
    def test_piece_without_cache_routed_events(self, workload, name):
        """The middle piece is all hot vtxProp atomics (PISC or PIM
        takes them); the carry passes over it unchanged."""
        trace, _ = workload
        head = trace.slice(0, 2000)
        n = 500
        rng = np.random.default_rng(5)
        verts = rng.integers(0, 64, n)
        hot = Trace(
            core=rng.integers(0, NCORES, n).astype(head.core.dtype),
            addr=(0x100000 + verts * 8).astype(head.addr.dtype),
            size=np.full(n, 8, dtype=head.size.dtype),
            access_class=np.full(n, int(AccessClass.VTXPROP),
                                 dtype=head.access_class.dtype),
            flags=np.full(n, FLAG_ATOMIC, dtype=head.flags.dtype),
            vertex=verts.astype(head.vertex.dtype),
        )
        cols = {c: np.concatenate([getattr(head, c), getattr(hot, c),
                                   getattr(head, c)])
                for c in ("core", "addr", "size", "access_class", "flags",
                          "vertex")}
        mixed = Trace(**cols)
        factories = all_backend_factories((mixed, [], 8, 64), NCORES)
        source = SegmentedTrace.from_trace(mixed, 500)
        middle = factories[name]()
        assert estimate_replay(middle, source.segment(4)).cache_events == 0
        want = gather_estimate(factories[name](), mixed)
        assert want.cache_events > 0
        _same(estimate_replay(factories[name](), source), want)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=33)


class TestStreamedEstimateSystem:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_streamed_equals_in_core(self, graph, name):
        request = RunRequest("pagerank", backend=name, dataset="t",
                             num_cores=4)
        incore = estimate_system(
            graph, request, context=RunContext.from_env(cache=False))
        streamed = estimate_system(
            graph, request,
            context=RunContext.from_env(cache=False, segment_events=700),
        )
        assert incore.events > 2 * 700
        _same(streamed, incore)

    def test_cold_streamed_estimate_feeds_run_system(self, graph, tmp_path):
        store = TraceStore(tmp_path)
        request = RunRequest("pagerank", backend="baseline", dataset="t",
                             num_cores=4)
        est = estimate_system(
            graph, request,
            context=RunContext.from_env(cache=store, segment_events=700),
        )
        assert len(store) == 1
        # The spool was adopted into the store, not left behind.
        assert not list(tmp_path.glob(".*.tmp*"))
        warm = estimate_system(
            graph, request,
            context=RunContext.from_env(cache=TraceStore(tmp_path),
                                        segment_events=700),
        )
        _same(warm, est)
        report = run_system(
            graph, request, context=RunContext.from_env(
                cache=TraceStore(tmp_path)),
        )
        assert report.trace_cache["hit"] is True
        assert report.trace_events == est.events
