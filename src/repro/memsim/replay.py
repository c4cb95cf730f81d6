"""The replay driver: pre-pass, route, cache stage, accounting.

This is the engine's control flow, shared by every backend. A replay
is four stages — interleave the trace, classify it in the vectorized
pre-pass, ask the backend for one route code per event, then execute:
cache-routed events run through the stateful
:class:`~repro.memsim.cachestate.CacheSystem` kernel, everything else
is batch-accounted by the backend. Telemetry sampling
(:class:`~repro.obs.timeline.ReplaySampler`) switches execution to
fixed-size windows over the same machinery via
:class:`~repro.memsim.routes.WindowedRoutes`.

Out-of-core streaming is the same driver over a different *source*:
:func:`run_replay` wraps an in-core trace as a single segment and
:func:`run_replay_segments` walks a
:class:`~repro.ligra.segments.SegmentedTrace` one bounded segment at a
time. All simulator state (caches, directory, DRAM open rows,
prefetchers, source buffers, PISCs, the backend's training state in
``ctx.extra``) is carried across segment boundaries on the shared
:class:`~repro.memsim.accounting.ReplayContext`, and per-core float
latencies accumulate through the
:class:`~repro.memsim.accounting.LatencyLedger`, so streamed replay
produces counters bit-identical to in-core replay.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.ligra.trace import Trace
from repro.memsim.cache import Cache
from repro.memsim.cachestate import CacheRecord, CacheSystem
from repro.memsim.coherence import Directory
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.pisc import PiscEngine
from repro.memsim.prepass import precompute
from repro.memsim.routes import ROUTE_CACHE, WindowedRoutes
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.memsim.stats import MemStats
from repro.obs import get_registry, get_tracer
from repro.obs.timeline import ReplaySampler

__all__ = ["ReplayOutput", "run_replay", "run_replay_segments"]

_LOG = logging.getLogger("repro.memsim.replay")


@dataclass
class ReplayOutput:
    """Everything a replay produces, for the timing/energy models."""

    stats: MemStats
    dram: DramModel
    crossbar: Crossbar
    l1s: List[Cache]
    l2_banks: List[Cache]
    directory: Directory
    srcbufs: Optional[List[SourceVertexBuffer]] = None
    piscs: Optional[List[PiscEngine]] = None
    #: Number of segments the driver consumed (1 for in-core replay).
    num_segments: int = 1
    #: The per-class attribution accumulator the replay folded into
    #: (:class:`repro.obs.attribution.AttributionAccumulator`), when
    #: attribution was requested.
    attribution: Optional[object] = None
    #: Kernel screening telemetry: the cache system's accumulated
    #: :class:`~repro.memsim.cachestate.KernelTelemetry` counters plus
    #: an execution ``mode`` tag ("kernel" or "scalar"). Present for
    #: every replay; all-zero counters under the scalar oracle.
    kernel: Optional[dict] = None


class _InCoreSource:
    """A whole resident trace, presented as one interleaved segment."""

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    @property
    def num_events(self) -> int:
        return self._trace.num_events

    def segments(self) -> Iterator[Tuple[int, Trace]]:
        yield 0, self._trace.interleaved()


class _SegmentedSource:
    """A segmented archive, streamed one bounded segment at a time."""

    def __init__(self, segtrace) -> None:
        self._segtrace = segtrace

    @property
    def num_events(self) -> int:
        return self._segtrace.num_events

    def segments(self) -> Iterator[Tuple[int, Trace]]:
        seg = self._segtrace
        for k in range(seg.num_segments):
            yield int(seg.segment_bounds[k]), seg.segment(k)


def run_replay(backend, trace: Trace,
               sampler: Optional[ReplaySampler] = None,
               attribution=None) -> ReplayOutput:
    """Replay an in-core ``trace`` through ``backend``.

    ``sampler`` (a :class:`repro.obs.ReplaySampler`) switches the
    cache stage and the batch accounting to windowed execution: every
    N events the cumulative counters are snapshotted into a timeline
    row. The stateful cache system persists across windows and
    per-route event order is unchanged, so all counters — including
    the per-core float latency sums, which accumulate through the
    order-invariant :class:`~repro.memsim.accounting.LatencyLedger` —
    are identical to the unwindowed replay.

    ``attribution`` (a
    :class:`repro.obs.attribution.AttributionAccumulator`) folds every
    event's counters into per-class totals alongside the aggregate
    accounting; the folds are integer reductions per segment, so they
    conserve exactly and are invariant to segmentation and windowing.
    """
    return _run(backend, _InCoreSource(trace), sampler, attribution)


def run_replay_segments(backend, segments,
                        sampler: Optional[ReplaySampler] = None,
                        attribution=None) -> ReplayOutput:
    """Replay a :class:`~repro.ligra.segments.SegmentedTrace` stream.

    Segments are consumed strictly one at a time — resident memory is
    bounded by the segment size, not the trace size — while every
    piece of simulator state carries across boundaries, so the
    counters are bit-identical to ``run_replay`` over the materialized
    trace (every archive holds its events in lockstep order).
    ``attribution`` folds per-class counters one segment at a time
    (see :func:`run_replay`) with totals bit-identical to the in-core
    fold.
    """
    return _run(backend, _SegmentedSource(segments), sampler, attribution)


def _run(backend, source, sampler: Optional[ReplaySampler],
         attribution=None) -> ReplayOutput:
    """The engine template, shared by in-core and streamed replay."""
    from repro.memsim.accounting import LatencyLedger, ReplayContext

    tracer = get_tracer()
    metrics = get_registry()
    total = source.num_events
    with tracer.span("replay", cat="replay", backend=backend.name,
                     events=total) as replay_span:
        config = backend.config
        ncores = config.core.num_cores
        stats = MemStats(num_cores=ncores)
        dram = DramModel(config.dram)
        dram.set_random_ranges(backend.dram_random_ranges)
        crossbar = Crossbar(config.interconnect, ncores)
        # The memo holds whole-cache-path results, so only a replay
        # whose cache path is one batch from this fresh system (one
        # in-core segment, no windows, no per-event record) may use it.
        whole = (
            isinstance(source, _InCoreSource) and sampler is None
            and attribution is None
        )
        system = CacheSystem(
            config, stats, dram, crossbar,
            scalar_cache=backend.scalar_cache,
            memo=backend.cache_memo if whole else None,
        )
        ledger = LatencyLedger(ncores)
        ctx = ReplayContext(
            config=config, stats=stats, dram=dram, crossbar=crossbar,
            system=system, ncores=ncores, ledger=ledger,
        )
        backend.prepare(ctx)

        window = 0
        if sampler is not None and total:
            core = config.core
            window = sampler.begin(
                total, ncores, core.compute_cycles_per_access, core.mlp,
                core.imbalance_factor, core.freq_ghz,
            )
        if attribution is not None:
            attribution.begin(
                line_bytes=config.l1.line_bytes,
                pim_bytes_per_op=backend.pim_bytes_per_op,
            )
        counts = np.zeros(ncores, dtype=np.int64)
        cache_events = 0
        num_segments = 0
        # Wall-clock accumulator for the window in progress (a window
        # can straddle a segment boundary).
        win_wall = 0.0

        for offset, seg in source.segments():
            num_segments += 1
            with tracer.span("segment", cat="replay", index=num_segments - 1,
                             start_event=offset, events=seg.num_events):
                with tracer.span("prepass", cat="replay"):
                    prepass = precompute(
                        seg, config, mapping=backend.prepass_mapping()
                    )
                with tracer.span("route", cat="replay"):
                    routes = backend.route(ctx, seg, prepass)
                cache_idx = np.flatnonzero(routes == ROUTE_CACHE)
                cache_events += len(cache_idx)
                counts += np.bincount(
                    np.asarray(seg.core, dtype=np.int64), minlength=ncores
                )
                classes = None
                if attribution is not None:
                    # Non-cache families fold once per segment on the
                    # full (unmasked) routes; windowed accounting masks
                    # per window, but the union over a segment's
                    # windows is exactly these routes, so each event
                    # folds exactly once either way. The locality mask
                    # is read *after* route(), which is where dynamic
                    # backends publish their per-segment override.
                    classes = attribution.classify(seg)
                    local = (
                        ctx.sp_local if ctx.sp_local is not None
                        else prepass.local
                    )
                    attribution.fold_routes(
                        classes, routes, prepass.atomic, local
                    )
                if not window:
                    with tracer.span("cache_path", cat="replay",
                                     events=len(cache_idx)):
                        _cache_stage(ctx, seg, prepass, cache_idx,
                                     attribution, classes)
                    with tracer.span("account", cat="replay"):
                        backend.account(ctx, seg, prepass, routes)
                else:
                    win_wall = _run_windowed_segment(
                        backend, ctx, seg, prepass, routes, cache_idx,
                        sampler, tracer, offset, total, window, win_wall,
                        attribution=attribution, classes=classes,
                    )

        metrics.counter("replay.events").inc(total)
        metrics.counter("replay.cache_events").inc(cache_events)
        metrics.counter("replay.offchip_routed_events").inc(
            total - cache_events
        )
        metrics.counter("replay.segments").inc(num_segments)
        kt = system.kernel_telemetry
        kernel_block = kt.as_dict()
        kernel_block["mode"] = (
            "kernel" if system.fast_path_ok else "scalar"
        )
        if tracer.enabled:
            tracer.counter(
                "kernel.screening",
                {
                    "screened": kt.screened,
                    "serialized": kt.serialized_events,
                },
            )
        ledger.flush(stats)
        stats.core_accesses = [int(x) for x in counts]
        backend.finalize(ctx)
        if window:
            replay_span.annotate(windows=sampler.timeline().num_windows)
        if num_segments > 1:
            replay_span.annotate(segments=num_segments)
        _LOG.debug(
            "replayed %d events through %s (%d segment(s), %d cache-routed,"
            " l2 hit rate %.4f)",
            total, backend.name, max(num_segments, 1), cache_events,
            stats.l2_hit_rate,
        )
        return ReplayOutput(
            stats=stats,
            dram=dram,
            crossbar=crossbar,
            l1s=system.l1s,
            l2_banks=system.l2_banks,
            directory=system.directory,
            srcbufs=ctx.srcbufs,
            piscs=ctx.piscs,
            num_segments=max(num_segments, 1),
            attribution=attribution,
            kernel=kernel_block,
        )


def _cache_stage(ctx, seg: Trace, prepass, idx: np.ndarray,
                 attribution, classes: Optional[np.ndarray]) -> None:
    """Run events ``idx`` of ``seg`` through the stateful cache system.

    With ``attribution`` the kernel records each event's outcome, and
    the record folds into the per-class totals under ``classes``.
    """
    if not len(idx):
        return
    record = CacheRecord(len(idx)) if attribution is not None else None
    ctx.system.replay_cache_path(
        seg.core[idx], seg.addr[idx], prepass.lines[idx],
        prepass.banks[idx], prepass.bank_keys[idx], prepass.write[idx],
        prepass.atomic[idx], ctx.ledger.mem["cache"],
        ctx.ledger.serial["cache"], record=record,
    )
    if record is not None:
        attribution.fold_cache(classes[idx], prepass.atomic[idx], record)


def _run_windowed_segment(
    backend,
    ctx,
    seg: Trace,
    prepass,
    routes: np.ndarray,
    cache_idx: np.ndarray,
    sampler: ReplaySampler,
    tracer,
    offset: int,
    total: int,
    window: int,
    win_wall: float,
    attribution=None,
    classes: Optional[np.ndarray] = None,
) -> float:
    """Windowed cache stage + accounting over one segment.

    The window grid is *global* (multiples of ``window`` over the
    whole event stream), so a segment is cut at every window boundary
    it crosses and a window that straddles segments accumulates
    across calls: ``win_wall`` carries the in-progress window's
    wall-clock, and the sampler only snapshots when the global
    position reaches a boundary (or the end of the stream). Counters
    therefore land in the window they occur in, however the trace is
    segmented.
    """
    stats = ctx.stats
    windowed = WindowedRoutes(routes)
    end = offset + seg.num_events
    lo = offset
    while lo < end:
        hi = min(end, ((lo // window) + 1) * window)
        wall_start = time.perf_counter()
        with tracer.span("window", cat="replay", start_event=lo,
                         end_event=hi):
            ci_lo, ci_hi = np.searchsorted(
                cache_idx, (lo - offset, hi - offset)
            )
            _cache_stage(ctx, seg, prepass, cache_idx[ci_lo:ci_hi],
                         attribution, classes)
            backend.account(
                ctx, seg, prepass, windowed.fill(lo - offset, hi - offset)
            )
            windowed.clear(lo - offset, hi - offset)
        win_wall += time.perf_counter() - wall_start
        if hi % window == 0 or hi == total:
            ctx.ledger.flush(stats)
            sampler.record(
                ((hi - 1) // window) * window, hi, stats, win_wall
            )
            win_wall = 0.0
        lo = hi
    return win_wall
