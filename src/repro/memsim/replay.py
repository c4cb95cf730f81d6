"""The replay driver: pre-pass, route, cache stage, accounting.

This is the engine's control flow, shared by every backend. A replay
walks the trace as a sequence of *pieces* and runs every piece through
the same stages (:func:`_stages`): classify it in the vectorized
pre-pass, ask the backend for one route code per event, then execute —
cache-routed events run through the stateful
:class:`~repro.memsim.cachestate.CacheSystem` kernel, everything else
is batch-accounted by the backend.

A piece is one segment of a
:class:`~repro.ligra.segments.SegmentedTrace` (an in-core trace is a
single segment), cut again at every boundary of the global window grid
when a telemetry sampler (:class:`~repro.obs.timeline.ReplaySampler`)
is set. Out-of-core streaming and windowed sampling are therefore just
more cuts: all simulator state (caches, directory, DRAM open rows,
prefetchers, source buffers, PISCs, the backend's training state in
``ctx.extra``) is carried across piece boundaries on the shared
:class:`~repro.memsim.accounting.ReplayContext`, and per-core float
latencies accumulate through the
:class:`~repro.memsim.accounting.LatencyLedger`, so every cut produces
counters bit-identical to one whole-trace replay.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import Trace
from repro.memsim.cache import Cache
from repro.memsim.cachestate import CacheRecord, CacheSystem
from repro.memsim.coherence import Directory
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.pisc import PiscEngine
from repro.memsim.prepass import precompute
from repro.memsim.routes import ROUTE_CACHE
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.memsim.stats import MemStats
from repro.obs import NULL_TRACER, get_registry, get_tracer
from repro.obs.timeline import ReplaySampler

__all__ = ["ReplayOutput", "run_replay"]

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


def run_replay(backend, source: Union[Trace, SegmentedTrace],
               sampler: Optional[ReplaySampler] = None,
               attribution=None) -> ReplayOutput:
    """Replay ``source`` — an in-core trace or a segmented stream.

    A :class:`~repro.ligra.segments.SegmentedTrace` is consumed one
    segment at a time, so resident memory is bounded by the segment
    size, not the trace size; an in-core trace is replayed as a single
    segment. Either way the events replay in the order they stand,
    which for a generated trace is the lockstep order
    :class:`~repro.ligra.trace.TraceBuilder` gives it.

    ``sampler`` (a :class:`repro.obs.ReplaySampler`) cuts the replay at
    every N events of the global stream and snapshots the cumulative
    counters into a timeline row per window. ``attribution`` (a
    :class:`repro.obs.attribution.AttributionAccumulator`) folds every
    event's counters into per-class totals with integer reductions.
    Neither moves a counter: all of them — including the per-core float
    latency sums — are identical however the replay is cut.
    """
    from repro.memsim.accounting import LatencyLedger, ReplayContext

    # The memo holds whole-cache-path results, so only a replay whose
    # cache path is one batch from a fresh system (an in-core trace, no
    # windows, no per-event record) may use it.
    whole = (
        isinstance(source, Trace) and sampler is None and attribution is None
    )
    if isinstance(source, Trace):
        source = SegmentedTrace.from_trace(
            source, segment_events=max(source.num_events, 1)
        )
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
        # Unsampled, the grid step exceeds every position: one piece
        # per segment, and no window spans.
        step = window or total + 1
        windows = tracer if window else NULL_TRACER
        counts = np.zeros(ncores, dtype=np.int64)
        cache_events = 0
        # Wall-clock of the window in progress (a window can straddle
        # a segment boundary).
        win_wall = 0.0
        num_segments = source.num_segments

        for k in range(num_segments):
            offset = int(source.segment_bounds[k])
            seg = source.segment(k)
            end = offset + seg.num_events
            with tracer.span("segment", cat="replay", index=k,
                             start_event=offset, events=seg.num_events):
                counts += np.bincount(
                    np.asarray(seg.core, dtype=np.int64), minlength=ncores
                )
                lo = offset
                while lo < end:
                    hi = min(end, (lo // step + 1) * step)
                    wall_start = time.perf_counter()
                    with windows.span("window", cat="replay",
                                      start_event=lo, end_event=hi):
                        cache_events += _stages(
                            backend, ctx, seg.slice(lo - offset, hi - offset),
                            attribution, tracer,
                        )
                    win_wall += time.perf_counter() - wall_start
                    if window and (hi % window == 0 or hi == total):
                        ledger.flush(stats)
                        sampler.record(
                            ((hi - 1) // window) * window, hi, stats,
                            win_wall,
                        )
                        win_wall = 0.0
                    lo = hi

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


def _stages(backend, ctx, piece: Trace, attribution, tracer) -> int:
    """Run one piece through every replay stage; return its cache events.

    Pre-pass, route, the attribution route fold, the cache path and the
    batch accounting, in that order. With ``attribution`` the kernel
    records each cache event's outcome, and the record folds into the
    per-class totals.
    """
    with tracer.span("prepass", cat="replay"):
        prepass = precompute(
            piece, ctx.config, mapping=backend.prepass_mapping()
        )
    with tracer.span("route", cat="replay"):
        routes = backend.route(ctx, piece, prepass)
    idx = np.flatnonzero(routes == ROUTE_CACHE)
    record = None
    if attribution is not None:
        # The locality mask is read *after* route(), which is where
        # dynamic backends publish their per-piece override.
        classes = attribution.classify(piece)
        local = ctx.sp_local if ctx.sp_local is not None else prepass.local
        attribution.fold_routes(classes, routes, prepass.atomic, local)
        record = CacheRecord(len(idx))
    with tracer.span("cache_path", cat="replay", events=len(idx)):
        if len(idx):
            ctx.system.replay_cache_path(
                piece.core[idx], piece.addr[idx], prepass.lines[idx],
                prepass.banks[idx], prepass.write[idx], prepass.atomic[idx],
                ctx.ledger.mem["cache"], ctx.ledger.serial["cache"],
                record=record,
            )
            if record is not None:
                attribution.fold_cache(
                    classes[idx], prepass.atomic[idx], record
                )
    with tracer.span("account", cat="replay"):
        backend.account(ctx, piece, prepass, routes)
    return len(idx)
