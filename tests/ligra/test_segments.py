"""Tests for the v4 segmented trace archive and the spooling builder."""

import io
import zipfile

import numpy as np
import pytest

from repro.errors import TraceError
from repro.ligra.segments import (
    DEFAULT_SEGMENT_EVENTS,
    SegmentedTrace,
    SegmentWriter,
    SpoolingTraceBuilder,
)
from repro.ligra.trace import (
    FLAG_ATOMIC,
    FLAG_WRITE,
    TRACE_FORMAT_VERSION,
    AccessClass,
    Region,
    Trace,
    TraceBuilder,
)

from ..property.test_estimate_equivalence import assert_same_estimate
from ..property.test_kernel_parity import (
    all_backend_factories,
    assert_parity,
    snapshot,
)

COLUMNS = ("core", "addr", "size", "access_class", "flags", "vertex")


def build_trace(n=100, seed=0, barrier_every=17, cores=4):
    rng = np.random.default_rng(seed)
    tb = TraceBuilder()
    for start in range(0, n, barrier_every):
        span = min(barrier_every, n - start)
        for core in range(cores):
            tb.append(core, rng.integers(0, 1 << 20, size=span), 8,
                      AccessClass.VTXPROP, write=bool(core % 2),
                      vertex=rng.integers(0, 50, size=span))
        tb.mark_barrier()
    trace = tb.build()
    trace.regions = (
        Region(name="vtxprop:x", base=0, size=1 << 20,
               access_class=AccessClass.VTXPROP),
    )
    return trace


def rewrite_member(path, name, array=None):
    """Replace member ``name`` of a saved archive (drop it if None)."""
    with zipfile.ZipFile(path) as zf:
        members = {
            member: zf.read(member) for member in zf.namelist()
            if member != name
        }
    with zipfile.ZipFile(path, "w") as zf:
        for member, blob in members.items():
            zf.writestr(member, blob)
        if array is not None:
            buf = io.BytesIO()
            np.save(buf, np.asarray(array))
            zf.writestr(name, buf.getvalue())


def assert_traces_equal(a: Trace, b: Trace):
    assert a == b


class TestFromTrace:
    def test_segments_cover_the_interleaved_trace(self):
        trace = build_trace()
        seg = SegmentedTrace.from_trace(trace, 37)
        assert seg.num_events == trace.num_events
        lo = 0
        for k in range(seg.num_segments):
            part = seg.segment(k)
            hi = lo + part.num_events
            np.testing.assert_array_equal(part.addr, trace.addr[lo:hi])
            np.testing.assert_array_equal(part.core, trace.core[lo:hi])
            lo = hi
        assert lo == trace.num_events

    def test_materialize_equals_interleaved(self):
        trace = build_trace()
        seg = SegmentedTrace.from_trace(trace, 37)
        assert_traces_equal(seg.materialize(), trace)

    @pytest.mark.parametrize("step", [1, 3, 1000])
    def test_every_step_partitions_exactly(self, step):
        trace = build_trace(n=20)
        seg = SegmentedTrace.from_trace(trace, step)
        sizes = np.diff(seg.segment_bounds)
        assert int(sizes.sum()) == seg.num_events
        assert (sizes[:-1] == step).all() if len(sizes) > 1 else True
        assert seg.num_segments == -(-seg.num_events // step)

    def test_barriers_rebase_exactly_once(self):
        trace = build_trace(barrier_every=10)
        seg = SegmentedTrace.from_trace(trace, 33)
        seen = []
        for k in range(seg.num_segments):
            part = seg.segment(k)
            lo = int(seg.segment_bounds[k])
            hi = int(seg.segment_bounds[k + 1])
            assert ((part.barriers >= 0) & (part.barriers < hi - lo)).all()
            seen.extend(int(b) + lo for b in part.barriers)
        assert seen == [b for b in trace.barriers.tolist() if b < len(trace)]

    def test_nonpositive_step_rejected(self):
        with pytest.raises(TraceError, match="segment_events"):
            SegmentedTrace.from_trace(build_trace(), 0)

    def test_segment_index_bounds_checked(self):
        seg = SegmentedTrace.from_trace(build_trace(), 50)
        with pytest.raises(TraceError, match="out of range"):
            seg.segment(seg.num_segments)


class TestArchiveRoundtrip:
    def test_save_open_roundtrip(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(trace, 41).save(path)
        with SegmentedTrace.open(path) as loaded:
            assert loaded.num_events == trace.num_events
            assert_traces_equal(loaded.materialize(), trace)

    def test_nbytes_matches_trace_semantics(self, tmp_path):
        trace = build_trace()
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(trace, 41).save(path)
        with SegmentedTrace.open(path) as loaded:
            assert loaded.nbytes == trace.nbytes

    def test_open_rejects_future_version(self, tmp_path):
        path = tmp_path / "t.npz"
        writer = SegmentWriter(path, segment_events=8)
        writer.close()
        rewrite_member(path, "format_version.npy",
                       np.int64(TRACE_FORMAT_VERSION + 1))
        with pytest.raises(TraceError, match="format version"):
            SegmentedTrace.open(path)

    def test_open_rejects_monolithic_archive(self, tmp_path):
        path = tmp_path / "mono.npz"
        trace = build_trace()
        np.savez(path, format_version=np.int64(TRACE_FORMAT_VERSION),
                 barriers=trace.barriers,
                 **{name: getattr(trace, name) for name in COLUMNS})
        with pytest.raises(TraceError, match="segment_bounds"):
            SegmentedTrace.open(path)

    @pytest.mark.parametrize("member, value, match", [
        ("interleaved.npy", np.int64(0), "lockstep order"),
        ("format_version.npy", None, "missing"),
        ("segment_bounds.npy", np.array([5, 41, 82, 100]), "segment_bounds"),
        ("segment_bounds.npy", np.array([0, 82, 41, 100]), "segment_bounds"),
    ], ids=["not-interleaved", "no-version", "bounds-start", "bounds-order"])
    def test_open_rejects_malformed_index(self, tmp_path, member, value,
                                          match):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        rewrite_member(path, member, value)
        with pytest.raises(TraceError, match=match):
            SegmentedTrace.open(path)

    @pytest.mark.parametrize("value", [
        np.arange(5, dtype=np.int64),
        np.zeros((41, 1), dtype=np.int64),
    ], ids=["short", "two-d"])
    def test_load_rejects_ragged_segment_member(self, tmp_path, value):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        rewrite_member(path, "seg00000.addr.npy", value)
        with pytest.raises(TraceError, match=r"seg00000\.addr\.npy"):
            Trace.load(path)
        with SegmentedTrace.open(path) as segments:
            with pytest.raises(TraceError, match="41 events"):
                segments.segment(0)

    def test_reads_after_close_fail_cleanly(self, tmp_path):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        loaded = SegmentedTrace.open(path)
        loaded.close()
        loaded.close()  # idempotent
        with pytest.raises(TraceError, match="closed"):
            loaded.segment(0)

    def test_archive_stamps_current_version(self, tmp_path):
        path = tmp_path / "t.npz"
        SegmentedTrace.from_trace(build_trace(), 41).save(path)
        with np.load(path) as data:
            assert int(data["format_version"]) == TRACE_FORMAT_VERSION
            assert "segment_bounds" in data.files


class TestSegmentWriter:
    def test_bounded_buffering_flushes_full_segments(self, tmp_path):
        path = tmp_path / "w.npz"
        writer = SegmentWriter(path, segment_events=10)
        rng = np.random.default_rng(1)
        total = 0
        for batch in (7, 13, 4, 26):
            writer.append({
                "core": np.zeros(batch, dtype=np.int16),
                "addr": rng.integers(0, 1 << 20, size=batch),
                "size": np.full(batch, 8, dtype=np.int16),
                "access_class": np.zeros(batch, dtype=np.int8),
                "flags": np.zeros(batch, dtype=np.int8),
                "vertex": np.full(batch, -1, dtype=np.int64),
            })
            total += batch
            # Never more than one partial segment buffered.
            assert writer._pending_n < 10
        writer.close()
        with SegmentedTrace.open(path) as loaded:
            assert loaded.num_events == total
            sizes = np.diff(loaded.segment_bounds)
            assert (sizes[:-1] == 10).all()

    def test_append_after_close_rejected(self, tmp_path):
        writer = SegmentWriter(tmp_path / "w.npz", segment_events=4)
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append({"addr": np.zeros(1, dtype=np.int64)})


class TestSpoolingBuilder:
    def _run_both(self, tmp_path, n=120, barrier_every=13):
        """Drive a TraceBuilder and a spooling builder identically."""
        rng = np.random.default_rng(5)
        spool = tmp_path / "spool.npz"
        spooler = SpoolingTraceBuilder(spool, segment_events=25)
        direct = TraceBuilder()
        for start in range(0, n, barrier_every):
            span = min(barrier_every, n - start)
            addrs = rng.integers(0, 1 << 20, size=span)
            verts = rng.integers(0, 40, size=span)
            for core in range(3):
                for tb in (spooler, direct):
                    tb.append(core, addrs, 8, AccessClass.VTXPROP,
                              write=True, vertex=verts)
            for tb in (spooler, direct):
                tb.mark_barrier()
        return spooler, direct

    def test_spooled_archive_equals_interleaved_build(self, tmp_path):
        spooler, direct = self._run_both(tmp_path)
        segments = spooler.finalize()
        assert_traces_equal(segments.materialize(), direct.build())
        segments.close()

    @pytest.mark.parametrize("seed", range(24))
    def test_spooled_archive_equals_build_property(self, tmp_path, seed):
        """Spooling is the in-core build, column for column.

        Random runs cover uneven and empty spans, duplicate barriers,
        barriers at 0 and at the end, absent cores, up to 16 cores,
        single- and multi-core batches, and batches larger than a
        segment.
        """
        rng = np.random.default_rng(seed)
        ncores = int(rng.integers(1, 17))
        step = int(rng.integers(1, 40))
        spooler = SpoolingTraceBuilder(tmp_path / "s.npz",
                                       segment_events=step)
        direct = TraceBuilder()
        builders = (spooler, direct)
        if rng.random() < 0.5:
            for tb in builders:
                tb.mark_barrier()  # a barrier at 0
        # Each span draws from a random subset of the cores.
        active = rng.choice(ncores, int(rng.integers(1, ncores + 1)),
                            replace=False)
        for _ in range(int(rng.integers(0, 30))):
            action = rng.random()
            if action < 0.6:
                n = int(rng.integers(1, 3 * step + 2))
                core = (int(rng.choice(active)) if rng.random() < 0.5
                        else rng.choice(active, n))
                addr = rng.integers(0, 1 << 30, n)
                vertex = rng.integers(-1, 100, n)
                size = int(rng.choice([4, 8]))
                klass = AccessClass(int(rng.integers(0, 3)))
                flags = dict(write=bool(rng.random() < 0.3),
                             atomic=bool(rng.random() < 0.2),
                             src_read=bool(rng.random() < 0.2))
                for tb in builders:
                    tb.append(core, addr, size, klass, vertex=vertex,
                              **flags)
            else:
                for _ in range(1 + int(action > 0.9)):  # duplicates
                    for tb in builders:
                        tb.mark_barrier()
                active = rng.choice(
                    ncores, int(rng.integers(1, ncores + 1)),
                    replace=False)
        if rng.random() < 0.5:
            for tb in builders:
                tb.mark_barrier()  # a barrier at the end
        assert spooler.num_events == direct.num_events
        with spooler.finalize() as segments:
            trace = direct.build()
            spooled = segments.materialize()
            for name in COLUMNS:
                assert getattr(spooled, name).dtype == \
                    getattr(trace, name).dtype, name
            assert_traces_equal(spooled, trace)
            sizes = np.diff(segments.segment_bounds)
            assert (sizes[:-1] == step).all()

    def test_build_is_unavailable(self, tmp_path):
        spooler = SpoolingTraceBuilder(tmp_path / "s.npz")
        with pytest.raises(TraceError, match="finalize"):
            spooler.build()
        spooler.abort()

    def test_regions_land_in_the_archive(self, tmp_path):
        spooler, _ = self._run_both(tmp_path, n=30)
        regions = (
            Region(name="vtxprop:x", base=0, size=4096,
                   access_class=AccessClass.VTXPROP),
        )
        segments = spooler.finalize(regions=regions)
        assert segments.regions == regions
        segments.close()

    def test_empty_run_finalizes_to_empty_archive(self, tmp_path):
        spooler = SpoolingTraceBuilder(tmp_path / "e.npz")
        segments = spooler.finalize()
        assert segments.num_events == 0
        assert segments.materialize().num_events == 0
        segments.close()

    def test_default_segment_size_is_sane(self):
        assert DEFAULT_SEGMENT_EVENTS > 0


def wide_trace(n=600, seed=11):
    """A hand-built trace whose addresses reach past 2**31 and 2**37.

    A third of the events are hot vtxProp accesses at small addresses;
    a third touch two lines 2**32 apart (``far``), which share every
    cache set and alias under any 32-bit cut of a line or address;
    the rest are scattered over ``[2**31, 2**40)``, so lines pass
    2**31 too.
    """
    rng = np.random.default_rng(seed)
    far = np.int64(1) << 38
    kind = rng.integers(0, 3, n)
    verts = rng.integers(0, 64, n)
    addr = np.select(
        [kind == 0, kind == 1],
        [0x100000 + verts * 8,
         0x2000_0000 + rng.integers(0, 2, n) * far
         + rng.integers(0, 4, n) * 64],
        (np.int64(1) << 31) + rng.integers(0, 1 << 34, n) * 64,
    )
    hot = kind == 0
    return Trace(
        core=rng.integers(0, 4, n).astype(np.int16),
        addr=addr,
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.where(hot, int(AccessClass.VTXPROP),
                              int(AccessClass.NGRAPH)).astype(np.int8),
        flags=np.where(hot, FLAG_ATOMIC, (rng.random(n) < 0.3)
                       * FLAG_WRITE).astype(np.int8),
        vertex=np.where(hot, verts, -1),
        barriers=np.array([150, 420], dtype=np.int64),
    )


def generated_wide_trace(builder, spans=4, seed=12):
    """Drive ``builder`` through a narrow span, then spans whose first
    batch fits int32 and whose later batches do not; returns the
    appended (core, addr, vertex) events."""
    rng = np.random.default_rng(seed)
    events = []
    for span in range(spans):
        for core in range(4):
            n = int(rng.integers(20, 60))
            top = 1 << 20 if core == 0 or span == 0 else 1 << 40
            addr = rng.integers(0, top, n) // 8 * 8
            if core == 0 and span % 2:
                addr += 1 << 30  # narrow, but above every other span's
            verts = rng.integers(0, 64, n)
            klass = AccessClass.VTXPROP if core % 2 else AccessClass.NGRAPH
            builder.append(core, addr, 8, klass, write=core == 3,
                           atomic=core == 1,
                           vertex=verts if core % 2 else -1)
            events += zip([core] * n, addr.tolist(),
                          verts.tolist() if core % 2 else [-1] * n)
        builder.mark_barrier()
    return events


def _members(path):
    """Member name -> array of a saved archive."""
    with zipfile.ZipFile(path) as zf:
        return {name: np.load(io.BytesIO(zf.read(name)))
                for name in zf.namelist()}


def assert_wide_contracts(trace, tmp_path):
    """load(save(t)) == t, kernel == scalar oracle, estimator == its
    gather oracle and streamed == in-core, on every backend."""
    path = tmp_path / "wide.npz"
    SegmentedTrace.from_trace(trace, 97).save(path)
    assert Trace.load(path) == trace
    factories = all_backend_factories((trace, [], 8, 64))
    for name, factory in sorted(factories.items()):
        out, _ = assert_parity(factory, trace)
        assert_same_estimate(factory, trace)
        with SegmentedTrace.open(path) as segments:
            assert segments.num_segments > 1
            streamed = factory().replay(segments)
        assert snapshot(streamed) == snapshot(out), name


class TestWideRange:
    """Columns past int32 keep int64, from the builder to the archive,
    and every replay contract holds on them."""

    def test_hand_built_trace_keeps_every_contract(self, tmp_path):
        trace = wide_trace()
        assert int(trace.addr.max()) >= 1 << 37
        assert_wide_contracts(trace, tmp_path)

    def test_generated_span_widens_after_a_narrow_batch(self, tmp_path):
        direct = TraceBuilder()
        events = generated_wide_trace(direct)
        trace = direct.build()
        assert trace.addr.dtype == np.int64
        assert trace.vertex.dtype == np.int32
        got = sorted(zip(trace.core.tolist(), trace.addr.tolist(),
                         trace.vertex.tolist()))
        assert got == sorted(events)
        assert_wide_contracts(trace, tmp_path)

    def test_spooled_and_in_core_archives_are_byte_identical(self,
                                                             tmp_path):
        """Each segment takes the width its own values need, however it
        was written, so one set of events gives one archive."""
        spooler = SpoolingTraceBuilder(tmp_path / "spool.npz",
                                       segment_events=64)
        generated_wide_trace(spooler)
        spooler.finalize().close()
        direct = TraceBuilder()
        generated_wide_trace(direct)
        SegmentedTrace.from_trace(direct.build(), 64).save(
            tmp_path / "core.npz")
        spooled = (tmp_path / "spool.npz").read_bytes()
        assert spooled == (tmp_path / "core.npz").read_bytes()
        members = _members(tmp_path / "spool.npz")
        widths = {members[f"seg{k:05d}.addr.npy"].dtype
                  for k in range(len(members["segment_bounds.npy"]) - 1)}
        assert widths == {np.dtype(np.int32), np.dtype(np.int64)}

    def test_nbytes_counts_each_segment_at_its_width(self, tmp_path):
        path = tmp_path / "s.npz"
        spooler = SpoolingTraceBuilder(path, segment_events=64)
        generated_wide_trace(spooler)
        with spooler.finalize() as segments:
            stored = sum(a.nbytes for name, a in _members(path).items()
                         if name.startswith("seg0"))
            assert segments.nbytes == stored + segments.barriers.nbytes
            assert segments.nbytes < segments.materialize().nbytes

    def test_wide_vertex_ids_round_trip(self, tmp_path):
        tb = TraceBuilder()
        tb.append(0, [64, 128], 8, AccessClass.VTXPROP, vertex=[3, 5])
        tb.append(1, [64, 128], 8, AccessClass.VTXPROP,
                  vertex=[1 << 33, -1])
        trace = tb.build()
        assert trace.vertex.dtype == np.int64
        assert trace.addr.dtype == np.int32
        path = tmp_path / "v.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace
        assert sorted(loaded.vertex.tolist()) == [-1, 3, 5, 1 << 33]
