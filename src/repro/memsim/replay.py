"""The replay driver: pre-pass, route, cache stage, accounting.

This is the engine's control flow, shared by every backend. A replay
walks the trace as a sequence of *pieces*: each piece is classified in
the vectorized pre-pass, the backend gives one route code per event,
and everything not cache-routed is batch-accounted by the backend
(:func:`_route_and_account`); the cache-routed events of a segment then
run through the stateful :class:`~repro.memsim.cachestate.CacheSystem`
kernel together (:func:`_cache_path`).

A piece is one segment of a
:class:`~repro.ligra.segments.SegmentedTrace` (an in-core trace is cut
into segments of
:data:`~repro.ligra.segments.DEFAULT_SEGMENT_EVENTS`), cut again at
every boundary of the global window grid when a telemetry sampler
(:class:`~repro.obs.timeline.ReplaySampler`) is set. In-core replay,
out-of-core streaming and windowed sampling are therefore just cuts: all simulator state (caches, directory, DRAM open rows,
prefetchers, source buffers, the backend's training state in
``ctx.extra``) is carried across piece boundaries on the shared
:class:`~repro.memsim.accounting.ReplayContext`, and per-core float
latencies accumulate through the
:class:`~repro.memsim.accounting.LatencyLedger`, so every cut produces
counters bit-identical to one whole-trace replay.

The cache path runs once per segment, after the segment's pieces have
been pre-passed, routed and accounted: nothing those stages do reads
cache state, and they only add integer counters. So a kernel batch is
never larger than a segment, and neither are its temporaries. A window that closes
inside the segment keeps a snapshot of the counters at its end, and the
cache batch reports its own counters at that window's cut
(:meth:`~repro.memsim.cachestate.CacheSystem.replay_cache_path`), so
windows cost no extra cache batches.
"""

from __future__ import annotations

import copy
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
    l1s: List[Cache]
    l2_banks: List[Cache]
    directory: Directory
    srcbufs: Optional[List[SourceVertexBuffer]] = None
    #: Number of segments of the replayed source (1 for an in-core
    #: trace, which the driver still walks in segments).
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
    segment at a time, and an in-core trace is walked in segments of
    :data:`~repro.ligra.segments.DEFAULT_SEGMENT_EVENTS` (views of its
    columns), so the replay's working set is bounded by the segment
    size, not the trace size. Either way the events replay in the order
    they stand, which for a generated trace is the lockstep order
    :class:`~repro.ligra.trace.TraceBuilder` gives it.

    Without ``sampler`` and ``attribution``, the cache path consults
    the backend's ``cache_memo`` segment by segment (see
    :mod:`repro.memsim.cachestate`), so a stream replayed before on the
    same store handle, or a prefix of one, is not replayed again.

    ``sampler`` (a :class:`repro.obs.ReplaySampler`) cuts the replay at
    every N events of the global stream and snapshots the cumulative
    counters into a timeline row per window. ``attribution`` (a
    :class:`repro.obs.attribution.AttributionAccumulator`) folds every
    event's counters into per-class totals with integer reductions.
    Neither moves a counter: all of them — including the per-core float
    latency sums — are identical however the replay is cut.
    """
    from repro.memsim.accounting import LatencyLedger, ReplayContext

    # A memo hit yields no per-event record and no counters part-way
    # through a batch, so windowed and attributed replays never look.
    memo = (backend.cache_memo
            if sampler is None and attribution is None else None)
    in_core = isinstance(source, Trace)
    if in_core:
        source = SegmentedTrace.from_trace(source)
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
            memo=memo,
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
                pieces = []
                # Windows closing in this segment: (start, end, counters
                # and ledger at the end without the segment's cache path,
                # cache events before the end, wall so far).
                closes = []
                lo = offset
                while lo < end:
                    hi = min(end, (lo // step + 1) * step)
                    wall_start = time.perf_counter()
                    with windows.span("window", cat="replay",
                                      start_event=lo, end_event=hi):
                        pieces.append(_route_and_account(
                            backend, ctx, seg.slice(lo - offset, hi - offset),
                            attribution, tracer,
                        ))
                    win_wall += time.perf_counter() - wall_start
                    if window and (hi % window == 0 or hi == total):
                        closes.append((
                            ((hi - 1) // window) * window, hi,
                            copy.deepcopy(stats), copy.deepcopy(ledger),
                            sum(len(p[0][0]) for p in pieces), win_wall,
                        ))
                        win_wall = 0.0
                    lo = hi
                wall_start = time.perf_counter()
                n, marks = _cache_path(ctx, pieces, attribution, tracer,
                                       [c[4] for c in closes])
                cache_wall = time.perf_counter() - wall_start
                cache_events += n
                # Each window's share of the batch's wall time goes with
                # its cache events; the rest rides on the open window.
                done = 0
                for (start, hi, snap, snap_ledger, cut, wall), mark in zip(
                        closes, marks):
                    inc, snap_ledger.mem["cache"], \
                        snap_ledger.serial["cache"] = mark
                    for name, value in inc.items():
                        setattr(snap, name, getattr(snap, name) + value)
                    snap_ledger.flush(snap)
                    share = cache_wall * (cut - done) / n if n else 0.0
                    sampler.record(start, hi, snap, wall + share)
                    done = cut
                win_wall += cache_wall * (n - done) / n if n else 0.0

        system.finish(ledger.mem["cache"], ledger.serial["cache"])
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
            l1s=system.l1s,
            l2_banks=system.l2_banks,
            directory=system.directory,
            srcbufs=ctx.srcbufs,
            num_segments=1 if in_core else max(num_segments, 1),
            attribution=attribution,
            kernel=kernel_block,
        )


def _route_and_account(backend, ctx, piece: Trace, attribution, tracer):
    """Pre-pass, route and account one piece; return its cache events.

    Returns the cache-routed events' columns (core, address, line, bank,
    write, atomic) and, with ``attribution``, their access classes, for
    the segment's cache batch (:func:`_cache_path`). The route fold of
    the attribution runs here, after ``route()``, which is where dynamic
    backends publish their per-piece locality override.
    """
    with tracer.span("prepass", cat="replay"):
        prepass = precompute(
            piece, ctx.config, mapping=backend.prepass_mapping()
        )
    with tracer.span("route", cat="replay"):
        routes = backend.route(ctx, piece, prepass)
    idx = np.flatnonzero(routes == ROUTE_CACHE)
    classes = None
    if attribution is not None:
        classes = attribution.classify(piece)
        local = ctx.sp_local if ctx.sp_local is not None else prepass.local
        attribution.fold_routes(classes, routes, prepass.atomic, local)
        classes = classes[idx]
    with tracer.span("account", cat="replay"):
        backend.account(ctx, piece, prepass, routes)
    columns = (piece.core[idx], piece.addr[idx], prepass.lines[idx],
               prepass.banks[idx], prepass.write[idx], prepass.atomic[idx])
    return columns, classes


def _cache_path(ctx, pieces, attribution, tracer, cuts):
    """Run one segment's cache-routed events through the cache path.

    Returns the number of events and the counters at each of ``cuts``
    (see :meth:`~repro.memsim.cachestate.CacheSystem.replay_cache_path`).
    With ``attribution`` the batch records each event's outcome, and the
    record folds into the per-class totals.
    """
    if len(pieces) == 1:
        columns = pieces[0][0]
        classes = pieces[0][1]
    else:
        columns = [np.concatenate(c) for c in zip(*(p[0] for p in pieces))]
        classes = (np.concatenate([p[1] for p in pieces])
                   if attribution is not None else None)
    n = len(columns[0])
    record = CacheRecord(n) if attribution is not None else None
    with tracer.span("cache_path", cat="replay", events=n):
        marks = ctx.system.replay_cache_path(
            *columns, ctx.ledger.mem["cache"], ctx.ledger.serial["cache"],
            record=record, cuts=cuts,
        )
        if record is not None and n:
            attribution.fold_cache(classes, columns[5], record)
    return n, marks
