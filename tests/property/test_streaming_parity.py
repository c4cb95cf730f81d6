"""Streamed replay must be bit-identical to in-core replay.

Given a :class:`~repro.ligra.segments.SegmentedTrace`, the replay
driver (:func:`repro.memsim.replay.run_replay`) consumes it one bounded
segment at a time; an in-core trace runs through the same loop as a
single segment. Every piece of simulator state (caches, directory,
DRAM open rows, prefetchers, source buffers, PISCs, backend training
state) carries across segment boundaries, and float latencies
accumulate through the order-invariant
:class:`~repro.memsim.accounting.LatencyLedger`. These tests pin the
headline contract: for *any* trace, *any* segmentation, and *every*
backend, the streamed counters AND the final model state equal the
in-core replay exactly (0 tolerance), including the windowed timeline.
"""

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st

from repro.ligra.segments import SegmentedTrace
from repro.obs import ReplaySampler

from tests.property.test_kernel_parity import (
    EVENTS,
    all_backend_factories,
    baseline_config,
    events_to_trace,
    snapshot,
    workload,  # noqa: F401  (module fixture, registered by import)
)

from repro.memsim.backends import BaselineBackend

ALL_BACKENDS = ["baseline", "omega", "locked", "graphpim", "dynamic"]


def assert_streamed_parity(make_backend, trace, segment_events,
                           sampler_window=None):
    """Replay in-core and streamed; compare every observable exactly."""
    incore = make_backend()
    out_i = incore.replay(
        trace,
        sampler=(ReplaySampler(sampler_window) if sampler_window else None),
    )
    segments = SegmentedTrace.from_trace(trace, segment_events)
    streamed = make_backend()
    s_s = ReplaySampler(sampler_window) if sampler_window else None
    out_s = streamed.replay(segments, sampler=s_s)
    snap_i, snap_s = snapshot(out_i), snapshot(out_s)
    assert snap_i == snap_s
    # Float latency sums must be EXACT (the ledger makes streamed
    # accumulation order-invariant), not merely close.
    assert snap_i["stats"]["core_mem_latency"] == \
        snap_s["stats"]["core_mem_latency"]
    assert out_s.num_segments == segments.num_segments
    return out_i, out_s, s_s


class TestRandomizedStreamedParity:
    """Hypothesis: any trace, any cut — including one event per segment."""

    @settings(max_examples=40, deadline=None)
    @given(events=EVENTS, segment_events=st.integers(1, 64))
    def test_any_segmentation_matches_in_core(self, events, segment_events):
        trace = events_to_trace(events)
        cfg = baseline_config()
        assert_streamed_parity(
            lambda: BaselineBackend(cfg), trace, segment_events
        )

    @settings(max_examples=15, deadline=None)
    @given(events=EVENTS)
    def test_single_segment_matches_in_core(self, events):
        trace = events_to_trace(events)
        cfg = baseline_config()
        assert_streamed_parity(
            lambda: BaselineBackend(cfg), trace, trace.num_events + 5
        )


class TestAllBackendsStreamedParity:
    """All five backends, one real workload, several segmentations."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("segment_events", [1000, 4096])
    def test_backend_streamed_parity(self, workload, name,  # noqa: F811
                                     segment_events):
        factories = all_backend_factories(workload)
        trace = workload[0]
        out_i, out_s, _ = assert_streamed_parity(
            factories[name], trace, segment_events
        )
        assert out_s.num_segments > 1
        assert out_i.num_segments == 1

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_backend_single_segment(self, workload, name):  # noqa: F811
        factories = all_backend_factories(workload)
        trace = workload[0]
        _, out_s, _ = assert_streamed_parity(
            factories[name], trace, trace.num_events + 5
        )
        assert out_s.num_segments == 1

    @pytest.mark.parametrize("name", ["baseline", "omega", "dynamic"])
    def test_windowed_timelines_identical(self, workload, name):  # noqa: F811
        """The global window grid survives segment-straddling windows."""
        factories = all_backend_factories(workload)
        trace = workload[0]
        incore = factories[name]()
        s_i = ReplaySampler(4096)
        incore.replay(trace, sampler=s_i)
        # 1000-event segments guarantee several windows straddle a
        # segment boundary (the grids are mutually unaligned).
        _, _, s_s = assert_streamed_parity(
            factories[name], trace, 1000, sampler_window=4096
        )
        cols_i = dict(s_i.timeline().columns)
        cols_s = dict(s_s.timeline().columns)
        cols_i.pop("wall_seconds"), cols_s.pop("wall_seconds")
        assert cols_i == cols_s


class TestWindowedParity:
    """Windowing is one more cut of the trace: it moves no counter."""

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("window", [97, 4096, "first-barrier"])
    def test_windowed_matches_unwindowed(self, workload, name,  # noqa: F811
                                         window):
        trace = workload[0]
        if window == "first-barrier":
            # A window grid on the first barrier puts that barrier's
            # source-buffer invalidation at position 0 of a piece.
            barriers = trace.barriers
            window = int(barriers[barriers > 0][0])
        make_backend = all_backend_factories(workload)[name]
        plain = make_backend().replay(trace)
        sampler = ReplaySampler(window)
        windowed = make_backend().replay(trace, sampler=sampler)
        assert sampler.timeline().num_windows == -(-trace.num_events
                                                   // window)
        assert snapshot(windowed) == snapshot(plain)


class TestStreamedInputContract:
    def test_saved_archive_streams_identically(self, workload,  # noqa: F811
                                               tmp_path):
        """Disk roundtrip: spooled archive == in-memory segmentation."""
        trace = workload[0]
        path = tmp_path / "w.npz"
        SegmentedTrace.from_trace(trace, 1500).save(path)
        with SegmentedTrace.open(path) as segments:
            cfg = baseline_config()
            out_i = BaselineBackend(cfg).replay(trace)
            out_s = BaselineBackend(cfg).replay(segments)
            assert snapshot(out_i) == snapshot(out_s)
