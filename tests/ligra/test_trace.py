"""Tests for the memory-trace model."""

import gc
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.ligra.trace import (
    AccessClass,
    AddressSpace,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
    span_lockstep_positions,
)

from repro.ligra.framework import LigraEngine
from repro.ligra.segments import SegmentedTrace, SpoolingTraceBuilder

from tests.ligra.test_segments import build_trace, rewrite_member


class TestAddressSpace:
    def test_regions_page_aligned_and_disjoint(self):
        space = AddressSpace()
        a = space.allocate("a", 100, AccessClass.VTXPROP)
        b = space.allocate("b", 5000, AccessClass.EDGELIST)
        assert a.base % AddressSpace.PAGE == 0
        assert b.base >= a.base + AddressSpace.PAGE
        assert b.base % AddressSpace.PAGE == 0

    def test_classify(self):
        space = AddressSpace()
        a = space.allocate("a", 64, AccessClass.VTXPROP)
        assert space.classify(a.base) is AccessClass.VTXPROP
        assert space.classify(a.base + 63) is AccessClass.VTXPROP
        assert space.classify(a.base + 64) is AccessClass.NGRAPH

    def test_zero_size_region(self):
        space = AddressSpace()
        r = space.allocate("empty", 0, AccessClass.NGRAPH)
        assert r.size == 0
        assert not r.contains(r.base)

    def test_negative_size_rejected(self):
        with pytest.raises(TraceError):
            AddressSpace().allocate("bad", -1, AccessClass.NGRAPH)

    def test_region_contains(self):
        space = AddressSpace()
        r = space.allocate("r", 10, AccessClass.NGRAPH)
        assert r.contains(r.base)
        assert not r.contains(r.base - 1)
        assert r.end == r.base + 10


class TestTraceBuilder:
    def test_append_and_build(self):
        tb = TraceBuilder()
        tb.append(0, np.array([100, 108]), 8, AccessClass.VTXPROP, vertex=np.array([0, 1]))
        tb.append(np.array([1, 2]), np.array([200, 300]), 4, AccessClass.EDGELIST)
        tr = tb.build()
        assert tr.num_events == 4
        # One barrier span, so build() hands it out in lockstep order.
        assert tr.core.tolist() == [0, 1, 2, 0]
        assert tr.addr.tolist() == [100, 200, 300, 108]
        assert tr.vertex.tolist() == [0, -1, -1, 1]

    def test_flags(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1]), 8, AccessClass.VTXPROP, write=True, atomic=True)
        tb.append(0, np.array([2]), 8, AccessClass.VTXPROP, src_read=True)
        tr = tb.build()
        assert tr.flags[0] == FLAG_WRITE | FLAG_ATOMIC
        assert tr.flags[1] == FLAG_SRC_READ

    def test_empty_batch_ignored(self):
        tb = TraceBuilder()
        tb.append(0, np.zeros(0, dtype=np.int64), 8, AccessClass.VTXPROP)
        assert tb.num_events == 0

    def test_disabled_builder_is_noop(self):
        tb = TraceBuilder(enabled=False)
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tr = tb.build()
        assert tr.num_events == 0
        assert len(tr.barriers) == 0

    def test_column_length_mismatch(self):
        tb = TraceBuilder()
        with pytest.raises(TraceError):
            tb.append(np.array([0]), np.array([1, 2]), 8, AccessClass.VTXPROP)

    def test_build_empty(self):
        tr = TraceBuilder().build()
        assert tr.num_events == 0

    def test_barriers_recorded(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tb.append(0, np.array([2]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        assert tr.barriers.tolist() == [1]


class TestTraceQueries:
    def _trace(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP,
                  write=True, atomic=True, vertex=np.array([5, 6]))
        tb.append(1, np.array([3]), 8, AccessClass.EDGELIST)
        tb.append(2, np.array([4]), 8, AccessClass.NGRAPH, write=True)
        return tb.build()

    def test_count_by_class(self):
        tr = self._trace()
        assert tr.count(access_class=AccessClass.VTXPROP) == 2
        assert tr.count(access_class=AccessClass.EDGELIST) == 1

    def test_count_by_flags(self):
        tr = self._trace()
        assert tr.count(atomic=True) == 2
        assert tr.count(write=True) == 3
        assert tr.count(write=True, atomic=False) == 1

    def test_vtxprop_vertex_ids(self):
        tr = self._trace()
        assert tr.vtxprop_vertex_ids().tolist() == [5, 6]



class TestTraceEquality:
    """``==`` compares traces by value, column by column."""

    def test_separately_built_traces_are_equal(self):
        assert build_trace() == build_trace()
        assert not build_trace() != build_trace()

    @pytest.mark.parametrize("name", ["core", "addr", "size",
                                      "access_class", "flags", "vertex"])
    def test_one_differing_column_is_unequal(self, name):
        a, b = build_trace(), build_trace()
        column = getattr(b, name).copy()
        column[3] += 1
        setattr(b, name, column)
        assert a != b

    def test_differing_barriers_or_regions_are_unequal(self):
        a, b = build_trace(), build_trace()
        b.barriers = b.barriers[:-1]
        assert a != b
        c = build_trace()
        c.regions = ()
        assert a != c

    def test_a_trace_never_equals_another_type(self):
        assert build_trace() != "trace"


class TestInterleaving:
    """``build()`` hands out every barrier span in lockstep order."""

    def test_round_robin_order(self):
        tb = TraceBuilder()
        tb.append(0, np.array([10, 11, 12]), 8, AccessClass.VTXPROP)
        tb.append(1, np.array([20, 21]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        assert tr.addr.tolist() == [10, 20, 11, 21, 12]

    def test_per_core_order_preserved(self):
        tb = TraceBuilder()
        tb.append(2, np.array([5, 6, 7]), 8, AccessClass.VTXPROP)
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        assert tr.addr.tolist() == [1, 5, 2, 6, 7]
        core0 = tr.addr[tr.core == 0].tolist()
        core2 = tr.addr[tr.core == 2].tolist()
        assert core0 == [1, 2]
        assert core2 == [5, 6, 7]

    def test_barriers_respected(self):
        tb = TraceBuilder()
        tb.append(0, np.array([1, 2]), 8, AccessClass.VTXPROP)
        tb.append(1, np.array([3]), 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tb.append(1, np.array([4]), 8, AccessClass.VTXPROP)
        tb.append(0, np.array([5]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        # Events before the barrier stay before it; each span is
        # interleaved on its own.
        assert tr.addr.tolist() == [1, 3, 2, 5, 4]
        assert tr.barriers.tolist() == [3]

    def test_empty_trace(self):
        tb = TraceBuilder()
        tb.mark_barrier()
        tr = tb.build()
        assert tr.num_events == 0
        assert tr.barriers.tolist() == [0]

    def test_event_multiset_preserved(self):
        tb = TraceBuilder()
        tb.append(np.array([0, 3, 1, 3]), np.array([1, 2, 3, 4]), 8,
                  AccessClass.EDGELIST)
        tr = tb.build()
        assert sorted(tr.addr.tolist()) == [1, 2, 3, 4]
        assert tr.addr.tolist() == [1, 3, 2, 4]


def _reference_lockstep(core):
    """Plain-Python restatement: per-core queues popped round-robin
    in core order until every queue is empty."""
    queues = {}
    for i, c in enumerate(core.tolist()):
        queues.setdefault(c, deque()).append(i)
    out = []
    while queues:
        for c in sorted(queues):
            out.append(queues[c].popleft())
        queues = {c: q for c, q in queues.items() if q}
    return out


def _lockstep_order(core):
    """The gather order :func:`span_lockstep_positions` implies."""
    pos = span_lockstep_positions(core)
    order = np.empty_like(pos)
    order[pos] = np.arange(len(pos))
    return order.tolist()


class TestSpanLockstepPerm:
    def test_refuses_spans_past_int32(self):
        # Positions are int32; a zero-stride view stands in for the span.
        core = np.broadcast_to(np.int16(0), (np.iinfo(np.int32).max + 1,))
        with pytest.raises(TraceError, match="at most"):
            span_lockstep_positions(core)

    @pytest.mark.parametrize("seed", range(30))
    def test_skewed_spans_with_absent_cores(self, seed):
        rng = np.random.default_rng(seed)
        ncores = int(rng.integers(1, 17))
        # Dirichlet shares below 1 concentrate the span on a few cores
        # and leave others absent.
        share = rng.dirichlet(np.full(ncores, 0.3))
        lo = int(rng.integers(0, 4))
        core = (lo + rng.choice(ncores, int(rng.integers(1, 300)), p=share)
                ).astype(np.int16)
        assert _lockstep_order(core) == _reference_lockstep(core)

    def test_min_core_above_zero_with_gaps(self):
        core = np.array([5, 5, 9, 5, 12, 12, 9, 5], dtype=np.int16)
        assert _lockstep_order(core) == _reference_lockstep(core)
        assert _lockstep_order(core) == [0, 2, 4, 1, 6, 5, 3, 7]

    def test_single_core_is_identity(self):
        core = np.full(7, 3, dtype=np.int16)
        assert _lockstep_order(core) == list(range(7))

    def test_empty_span(self):
        assert _lockstep_order(np.zeros(0, dtype=np.int16)) == []


def _schedule(num_cores, chunk_size):
    """The engine's core-assignment methods, on a stand-in engine (they
    read only ``num_cores`` and ``chunk_size``)."""
    return SimpleNamespace(num_cores=num_cores, chunk_size=chunk_size)


@st.composite
def framework_spans(draw):
    """A barrier span as the engine emits it: a list of batches, each
    a core column from ``cores_for_edges`` or ``cores_for_positions``
    (block or chunked schedule), shifted so the lowest core id can be
    above 0, with some cores dropped, and optionally one extra core
    that issues a single event."""
    num_cores = draw(st.integers(1, 128))
    chunk_size = draw(st.sampled_from([None, 1, 3, 8]))
    engine = _schedule(num_cores, chunk_size)
    low = draw(st.integers(0, 3))
    absent = draw(st.sets(st.integers(0, num_cores - 1),
                          max_size=num_cores - 1))
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 400))
        if draw(st.booleans()):
            cores = LigraEngine.cores_for_edges(engine, n)
        else:
            total = draw(st.integers(max(n, 1), 2 * max(n, 1)))
            positions = np.sort(np.random.default_rng(n).choice(
                total, n, replace=False))
            cores = LigraEngine.cores_for_positions(engine, positions, total)
        cores = cores[~np.isin(cores, list(absent))] + low
        batches.append(cores.astype(np.int16))
    if draw(st.booleans()):
        # A long, unbalanced tail: one more core with a single event.
        batches.append(np.array([low + num_cores], dtype=np.int16))
    return batches


def _gathered_span(chunks):
    """The lockstep span by concatenation and the reference gather."""
    cols = {name: np.concatenate([c[name] for c in chunks])
            for name in chunks[0]}
    order = _reference_lockstep(cols["core"])
    return {name: col[order] for name, col in cols.items()}


class TestLockstepPlacementProperties:
    """Counting placement == per-core queues popped round-robin."""

    @settings(max_examples=150, deadline=None)
    @given(framework_spans())
    def test_framework_spans(self, batches):
        core = np.concatenate(batches)
        assert _lockstep_order(core) == _reference_lockstep(core)

    def test_unbalanced_tail(self):
        core = np.r_[np.repeat(np.arange(1, 5), [9, 7, 12, 8]), 5, 3, 3]
        core = core.astype(np.int16)
        assert _lockstep_order(core) == _reference_lockstep(core)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(framework_spans(), min_size=1, max_size=3),
           st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_builders_equal_concatenate_and_gather(self, tmp_path_factory,
                                                   spans, step, seed):
        """``build()`` and the spooled segments hold, column for
        column, what concatenating each span and gathering it by the
        reference order gives."""
        rng = np.random.default_rng(seed)
        spool = tmp_path_factory.mktemp("spool") / "s.npz"
        spooler = SpoolingTraceBuilder(spool, segment_events=step)
        direct = TraceBuilder()
        expected = []
        for batches in spans:
            raw = []
            for core in batches:
                n = len(core)
                kwargs = dict(
                    core=core, addr=rng.integers(0, 1 << 30, n),
                    size=rng.choice([4, 8], n).astype(np.int16),
                    access_class=AccessClass(int(rng.integers(0, 3))),
                    write=bool(rng.integers(2)), atomic=bool(rng.integers(2)),
                    vertex=rng.integers(-1, 1000, n))
                for tb in (spooler, direct):
                    tb.append(**kwargs)
                if n:
                    raw.append(direct._chunks[-1])
            if raw:
                expected.append(_gathered_span(raw))
            for tb in (spooler, direct):
                tb.mark_barrier()
        built = direct.build()
        with spooler.finalize() as segtrace:
            segments = [segtrace.segment(i)
                        for i in range(segtrace.num_segments)]
        for name in ("core", "addr", "size", "access_class", "flags",
                     "vertex"):
            want = (np.concatenate([span[name] for span in expected])
                    if expected else np.zeros(0))
            assert np.array_equal(getattr(built, name), want), name
            spooled = (np.concatenate([getattr(s, name) for s in segments])
                       if segments else np.zeros(0))
            assert np.array_equal(spooled, want), name
            assert all(getattr(s, name).dtype == getattr(built, name).dtype
                       for s in segments)


class TestBarrierNormalization:
    @staticmethod
    def _trace(barriers):
        core = np.array([0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0],
                        dtype=np.int16)
        n = len(core)
        return Trace(
            core=core,
            addr=np.arange(n, dtype=np.int64),
            size=np.full(n, 8, dtype=np.int16),
            access_class=np.zeros(n, dtype=np.int8),
            flags=np.zeros(n, dtype=np.int8),
            vertex=np.full(n, -1, dtype=np.int64),
            barriers=np.asarray(barriers, dtype=np.int64),
        )

    def test_load_rejects_decreasing_barriers(self, tmp_path):
        # save() writes sorted barriers, so tamper with the index.
        path = tmp_path / "bad.npz"
        self._trace([4, 9]).save(path)
        rewrite_member(path, "barriers.npy", np.array([9, 4]))
        with pytest.raises(TraceError, match="decreasing barriers"):
            Trace.load(path)

    def test_load_accepts_sorted_barriers(self, tmp_path):
        path = tmp_path / "good.npz"
        self._trace([4, 4, 9]).save(path)
        loaded = Trace.load(path)
        assert loaded.barriers.tolist() == [4, 9]
        # A hand-built trace keeps the order it was given.
        assert loaded.addr.tolist() == list(range(12))


class TestSlice:
    def test_consecutive_cuts_hold_each_barrier_once(self):
        trace = build_trace(n=100, barrier_every=17)
        n = trace.num_events
        barriers = trace.barriers.tolist()
        assert barriers[-1] == n  # an end barrier falls in no slice
        # 68 is a barrier on a cut: it must open the next slice.
        assert 68 in barriers
        cuts = [0, 1, 17, 68, 69, 200, 333, n - 1, n]
        seen = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece = trace.slice(lo, hi)
            assert piece.num_events == hi - lo
            assert np.shares_memory(piece.addr, trace.addr)
            seen += (piece.barriers + lo).tolist()
        assert seen == [b for b in barriers if b < n]


class TestLockstepTracesAreNotCycles:
    """Traces and the builder free event columns on ``del``, without
    the cyclic GC."""

    @pytest.fixture(autouse=True)
    def no_gc(self):
        gc.disable()
        yield
        gc.enable()

    def test_build_keeps_no_event_columns(self):
        tb = TraceBuilder()
        core = np.zeros(3, dtype=np.int16)
        addr = np.array([8, 16, 24], dtype=np.int64)
        tb.append(core, addr, 8, AccessClass.VTXPROP)
        tb.mark_barrier()
        tb.append(core, addr + 64, 8, AccessClass.VTXPROP)
        refs = [weakref.ref(core), weakref.ref(addr)]
        del core, addr
        trace = tb.build()
        assert trace.addr.tolist() == [8, 16, 24, 72, 80, 88]
        assert [r() for r in refs] == [None, None]
        assert tb.num_events == 0
        ref = weakref.ref(trace.addr)
        del trace
        assert ref() is None

    def test_algorithm_result_engine_keeps_no_event_columns(
            self, small_powerlaw):
        from repro.algorithms.pagerank import run_pagerank

        result = run_pagerank(small_powerlaw, num_cores=4)
        batch = np.arange(5, dtype=np.int64) * 64
        result.engine.trace_builder.append(0, batch, 8, AccessClass.NGRAPH)
        ref = weakref.ref(batch)
        assert result.trace.addr[-5:].tolist() == batch.tolist()
        del batch
        assert ref() is None
        assert result.engine.trace_builder.num_events == 0
        trace_ref = weakref.ref(result.trace.addr)
        result._trace = None
        assert trace_ref() is None

    @pytest.mark.parametrize("source", ["in-core", "archive"])
    def test_segment(self, tmp_path, source):
        segments = SegmentedTrace.from_trace(build_trace(), 41)
        if source == "archive":
            path = tmp_path / "t.npz"
            segments.save(path)
            segments = SegmentedTrace.open(path)
        with segments:
            seg = segments.segment(1)
            ref = weakref.ref(seg)
            del seg
            assert ref() is None

    def test_materialize(self, tmp_path):
        path = tmp_path / "t.npz"
        build_trace().save(path)
        with SegmentedTrace.open(path) as segments:
            trace = segments.materialize()
            ref = weakref.ref(trace)
            del trace
            assert ref() is None
