"""Analytic fast-path estimator: predict replay counters without replay.

The replay engine's cost is its stateful cache kernel. This module
predicts the MemStats-level headline counters — cache hit rates, DRAM
read traffic, scratchpad/offload shares — from trace *structure*
alone, in a handful of vectorized passes per piece of the trace:

1. The real pre-pass and routing stages run exactly as in
   :func:`repro.memsim.replay.run_replay` (so scratchpad, offload,
   source-buffer, locked-region and PIM shares are **exact**: routing
   is a pure function of the trace and the backend's training state,
   not of cache contents).
2. Cache-routed events go through a *reuse-gap* model instead of the
   stateful kernel: in per-(core, L1-set) slot-major order, an access
   is predicted to hit iff its previous same-line occurrence in the
   same slot is at most ``ways`` slot-accesses away. First touches are
   misses. The same rule, applied to the predicted-miss subsequence in
   (bank, L2-set) slots with the L2's associativity, predicts L2 hits.
3. Predicted DRAM read traffic is the predicted L2 miss count times
   the line size; write traffic uses the write-triggered subset of
   those misses as a dirty-eviction proxy. Each off-chip PIM atomic
   adds the exact half of its bytes to each direction, as replay
   charges it.

The trace is read the way replay streams it: a segmented trace one
segment at a time, an in-core trace in pieces of
:data:`~repro.ligra.segments.DEFAULT_SEGMENT_EVENTS`. The routing state
rides on one :class:`~repro.memsim.accounting.ReplayContext`, and each
L1 and L2 slot carries its last ``ways`` keys into the next piece in a
per-slot table. The rule looks back at most ``ways`` accesses in a
slot, so those keys are all it needs: every estimate is identical
however the trace is cut, and the working set is bounded by the piece
and the table, not the trace.

The model is deliberately *approximate* where the kernel is stateful:
the reuse gap counts slot accesses rather than distinct intervening
lines (a pessimistic bias — repeats inflate the gap), there is no
cross-core coherence (invalidations make the model optimistic for
write-shared lines), no prefetcher, and no warm state across calls.
``docs/performance.md`` documents the measured error envelope; the
property suite (``tests/property/test_estimate.py``) pins the
conservation invariants that hold regardless of workload.

Determinism (DET001): this module takes no wall-clock time and draws
no randomness — identical inputs give identical estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

from repro.config import SimConfig
from repro.intsort import stable_argsort
from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import Trace
from repro.memsim.accounting import LatencyLedger, ReplayContext
from repro.memsim.cachestate import CacheSystem
from repro.memsim.dram import DramModel
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import core_id_dtype, precompute
from repro.memsim.routes import (
    ROUTE_CACHE,
    ROUTE_LOCKED,
    ROUTE_PIM,
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
    ROUTE_SRCBUF_HIT,
)
from repro.memsim.stats import MemStats
from repro.obs import get_tracer

__all__ = ["ReplayEstimate", "estimate_replay", "predict_slot_hits"]


@dataclass
class ReplayEstimate:
    """Predicted headline counters for one (backend, trace) pair.

    Route-derived fields (``sp_*``, ``offloads``, ``srcbuf_hits``,
    ``locked_events``, ``pim_events``) are exact; cache-level fields
    (``l1_*``, ``l2_*``, ``dram_*``) come from the reuse-gap model,
    except the DRAM bytes of PIM atomics, which are exact.
    """

    events: int = 0
    cache_events: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    sp_plain: int = 0
    sp_rmw: int = 0
    offloads: int = 0
    srcbuf_hits: int = 0
    locked_events: int = 0
    pim_events: int = 0
    #: Raw route-code histogram (route code -> event count).
    route_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def l1_hit_rate(self) -> float:
        """Predicted L1 hit rate over cache-routed events."""
        return self.l1_hits / self.cache_events if self.cache_events else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Predicted L2 hit rate over predicted L1 misses."""
        total = self.l2_hits + self.l2_misses
        return self.l2_hits / total if total else 0.0

    @property
    def sp_events(self) -> int:
        """Events absorbed by the scratchpad port (exact)."""
        return self.sp_plain + self.sp_rmw + self.offloads

    @property
    def offload_fraction(self) -> float:
        """Fire-and-forget offload share of all events (exact)."""
        return self.offloads / self.events if self.events else 0.0

    @property
    def sp_fraction(self) -> float:
        """Scratchpad-routed share of all events (exact)."""
        return self.sp_events / self.events if self.events else 0.0

    @property
    def dram_bytes(self) -> int:
        """Predicted total DRAM traffic."""
        return self.dram_read_bytes + self.dram_write_bytes

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric form — the namespace prune specs evaluate in."""
        return {
            "events": self.events,
            "cache_events": self.cache_events,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "dram_bytes": self.dram_bytes,
            "sp_plain": self.sp_plain,
            "sp_rmw": self.sp_rmw,
            "offloads": self.offloads,
            "sp_events": self.sp_events,
            "sp_fraction": self.sp_fraction,
            "offload_fraction": self.offload_fraction,
            "srcbuf_hits": self.srcbuf_hits,
            "locked_events": self.locked_events,
            "pim_events": self.pim_events,
        }


def predict_slot_hits(
    slots: np.ndarray, keys: np.ndarray, ways: int
) -> np.ndarray:
    """Reuse-gap hit prediction for one level of set-associative cache.

    ``slots[i]`` names the set the i-th access indexes (already fused
    with the core/bank id so distinct caches never share a slot) and
    ``keys[i]`` the line it touches. An access is predicted to *hit*
    iff the nearest earlier access to the same ``(slot, key)`` is at
    most ``ways`` accesses away *within that slot* — i.e. at most
    ``ways - 1`` slot accesses intervene, which bounds the number of
    distinct intervening lines an LRU set of ``ways`` ways can absorb
    without evicting the key. First touches always predict a miss.

    The gap counts slot *accesses*, not distinct lines, so repeated
    touches of one hot line inflate the gap and the model errs toward
    predicting misses (pessimistic for hits, conservative for DRAM
    traffic). This is one piece of :func:`_look_back` with nothing
    carried in.
    """
    return _look_back(np.asarray(slots), np.asarray(keys), ways, None)[0]


def _look_back(slots, keys, ways: int, carry):
    """:func:`predict_slot_hits` for one piece of a longer stream.

    ``carry`` is ``None`` (a stream of one piece) or the per-slot table
    of :func:`_new_carry`: each slot's last ``ways`` keys before the
    piece, in a ring. Returns the piece's hits and the carry, updated in
    place for the next piece.

    The rule only looks back, so it needs no key-major order: in
    slot-major, batch-stable order a slot's accesses are contiguous,
    and "the nearest same-key access is at most ``ways`` back" is
    "one of the previous ``ways`` positions holds the same ``(slot,
    key)``". That is one radix slot sort plus ``ways`` shifted
    compares. The access at rank ``r < ways`` of its slot in the piece
    also looks back at the slot's newest ``ways - r`` carried keys, so
    only each slot's first ``ways`` accesses read the table and only
    its last ``ways`` write it: a stream cut into pieces gets exactly
    the hits of the whole, and a piece costs in proportion to the
    piece, not to the table. Slot and key are compared separately, so
    any key width works; keys are offset by their minimum straight into
    int32 (no int64 temporary) unless their span needs int64.
    """
    n = len(slots)
    if ways <= 0 or not n:
        return np.zeros(n, dtype=bool), carry
    kmin, kmax = int(keys.min()), int(keys.max())
    kdt = np.int32 if kmax - kmin <= np.iinfo(np.int32).max else np.int64
    # Offset in kdt itself: exact modulo its width, so no key wraps.
    ks = np.subtract(keys, np.int64(kmin), dtype=kdt, casting="unsafe")
    so = stable_argsort(slots)
    ss = slots[so]
    ks = ks[so]
    hit = np.zeros(n, dtype=bool)
    same = np.empty(n, dtype=bool)
    for d in range(1, min(ways, n - 1) + 1):
        m = n - d
        np.equal(ks[d:], ks[:-d], out=same[:m])
        same[:m] &= ss[d:] == ss[:-d]
        hit[d:] |= same[:m]
    del same
    if carry is not None:
        table, filled, head = carry
        flat = table.reshape(-1)
        # Each touched slot's run in ``ss`` (start, length), and one
        # entry per access among the run's first ``ways``: the run and
        # the rank there (the same ranks index the run's last ``ways``).
        starts = np.flatnonzero(np.append(True, ss[1:] != ss[:-1]))
        cnt = np.diff(np.append(starts, n))
        touched = ss[starts].astype(np.intp)
        take = np.minimum(cnt, ways)
        run = np.repeat(np.arange(len(starts)), take)
        rank = np.arange(len(run))
        rank -= (np.cumsum(take) - take)[run]
        # The access at rank r looks back past the piece at the slot's
        # newest ``ways - r`` carried keys; key j back (1-based) is in
        # ring column ``(head - j) % ways``.
        room = np.minimum(ways - rank, filled[touched][run])
        # Ordered by room, most first, the accesses that look j back
        # are a prefix.
        by = np.argsort(-room, kind="stable")
        reach = np.cumsum(np.bincount(room, minlength=ways + 1)[::-1])[::-1]
        at = starts[run[by]] + rank[by]
        k_at = ks[at].astype(np.int64)
        k_at += kmin
        base = (touched * ways)[run[by]]
        ring = head[touched][run[by]]
        found = np.zeros(len(at), dtype=bool)
        for j in range(1, ways + 1):
            c = reach[j]
            found[:c] |= flat[base[:c] + (ring[:c] - j) % ways] == k_at[:c]
        hit[at] |= found
        del room, by, reach, at, k_at, base, ring, found
        # Then the ring takes each slot's last ``ways`` keys, oldest
        # first, ending just behind the new head.
        head[touched] = (head[touched] + cnt) % ways
        filled[touched] = np.minimum(filled[touched] + cnt, ways)
        at = (starts + cnt - take)[run] + rank
        col = (head[touched] - take)[run] + rank
        col %= ways
        col += (touched * ways)[run]
        k_at = ks[at].astype(np.int64)
        k_at += kmin
        flat[col] = k_at
        del starts, cnt, touched, take, run, rank, at, col, k_at
    del ks
    out = np.empty(n, dtype=bool)
    out[so] = hit
    return out, carry


def _new_carry(num_slots: int, ways: int):
    """An empty carry for :func:`_look_back`: per slot, a ring of
    ``ways`` int64 keys, how many of them are set and the ring column
    the next key goes to (both below ``ways``, so int8 when it fits)."""
    small = np.int8 if ways <= np.iinfo(np.int8).max else np.int32
    return (np.zeros((num_slots, max(ways, 0)), dtype=np.int64),
            np.zeros(num_slots, dtype=small),
            np.zeros(num_slots, dtype=small))


def _slot_column(owner, keys, nsets: int, nowners: int) -> np.ndarray:
    """``owner * nsets + keys % nsets``, in int16 whenever every slot
    fits."""
    dt = np.int16 if nowners * nsets <= np.iinfo(np.int16).max else np.int32
    col = owner.astype(dt)
    col *= nsets
    col += (keys % nsets).astype(dt, copy=False)
    return col


def estimate_replay(
    backend, source: Union[Trace, SegmentedTrace]
) -> ReplayEstimate:
    """Predict replay counters for ``source`` through ``backend``.

    ``source`` is read the way :func:`~repro.memsim.replay.run_replay`
    streams it: a :class:`~repro.ligra.segments.SegmentedTrace` one
    segment at a time, an in-core trace in pieces of
    :data:`~repro.ligra.segments.DEFAULT_SEGMENT_EVENTS`. Each piece
    runs the backend's real prepass and route stages on one shared
    :class:`~repro.memsim.accounting.ReplayContext` (so the estimate
    sees the routing a replay would, training state included) and then
    the closed-form cache model of :func:`predict_slot_hits` instead of
    the stateful kernel, with each L1 and L2 slot's last ``ways`` keys
    carried into the next piece. The estimate is the same however the
    source is cut, and the working set is bounded by the piece, not
    the trace. Never touches :meth:`CacheSystem.replay_cache_path`.
    Each piece's prepass, route and cache levels run in ``estimate``
    spans of the installed tracer.
    """
    if isinstance(source, Trace):
        source = SegmentedTrace.from_trace(source)
    config: SimConfig = backend.config
    ncores = config.core.num_cores
    stats = MemStats(num_cores=ncores)
    dram = DramModel(config.dram)
    dram.set_random_ranges(backend.dram_random_ranges)
    crossbar = Crossbar(config.interconnect, ncores)
    system = CacheSystem(config, stats, dram, crossbar)
    ctx = ReplayContext(
        config=config, stats=stats, dram=dram, crossbar=crossbar,
        system=system, ncores=ncores, ledger=LatencyLedger(ncores),
    )
    backend.prepare(ctx)
    mapping = backend.prepass_mapping()
    geometry = BankGeometry(num_banks=ncores,
                            line_bytes=config.l1.line_bytes)
    core_dt = core_id_dtype(ncores)
    l1, l2 = config.l1, config.l2_per_core

    tracer = get_tracer()
    counts = np.zeros(int(ROUTE_PIM) + 1, dtype=np.int64)
    l1_hits = l2_hits = l2_miss_writes = 0
    l1_carry = _new_carry(ncores * l1.num_sets, l1.ways)
    l2_carry = _new_carry(ncores * l2.num_sets, l2.ways)
    for k in range(source.num_segments):
        piece = source.segment(k)
        with tracer.span("prepass", cat="estimate"):
            prepass = precompute(piece, config, mapping=mapping)
        with tracer.span("route", cat="estimate"):
            routes = backend.route(ctx, piece, prepass)
        piece_counts = np.bincount(routes, minlength=len(counts))
        counts += piece_counts
        ncache = int(piece_counts[ROUTE_CACHE])
        if not ncache:
            continue

        # Select cache-routed events with a bool mask (no index array),
        # and read the prepass and trace columns in place when nothing
        # else is routed — the cache-only backends' common case.
        everything = ncache == prepass.num_events
        cache = None if everything else routes == ROUTE_CACHE
        del routes
        with tracer.span("l1", cat="estimate"):
            lines = prepass.lines if everything else prepass.lines[cache]
            cores = (piece.core if everything
                     else piece.core[cache].astype(core_dt))
            l1_hit, l1_carry = _look_back(
                _slot_column(cores, lines, l1.num_sets, ncores),
                lines, l1.ways, l1_carry,
            )
            del lines, cores
        l1_hits += int(np.count_nonzero(l1_hit))

        # The L1 misses as a mask over the piece: only they get bank
        # keys, and only they feed the L2 level and its carry.
        if everything:
            miss = ~l1_hit
        else:
            miss = cache
            miss[cache] = ~l1_hit
        del l1_hit
        with tracer.span("l2", cat="estimate"):
            bank_keys = geometry.bank_keys_of(prepass.lines[miss])
            l2_hit, l2_carry = _look_back(
                _slot_column(prepass.banks[miss], bank_keys, l2.num_sets,
                             ncores),
                bank_keys, l2.ways, l2_carry,
            )
            del bank_keys
        l2_hits += int(np.count_nonzero(l2_hit))
        l2_miss_writes += int(np.count_nonzero(prepass.write[miss] & ~l2_hit))
        del miss, l2_hit, prepass

    est = ReplayEstimate(events=source.num_events)
    est.route_counts = {
        int(code): int(c) for code, c in enumerate(counts) if c
    }
    est.sp_plain = int(counts[ROUTE_SP_PLAIN])
    est.sp_rmw = int(counts[ROUTE_SP_RMW])
    est.offloads = int(counts[ROUTE_SP_OFFLOAD])
    est.srcbuf_hits = int(counts[ROUTE_SRCBUF_HIT])
    est.locked_events = int(counts[ROUTE_LOCKED])
    est.pim_events = int(counts[ROUTE_PIM])
    est.cache_events = int(counts[ROUTE_CACHE])
    est.l1_hits = l1_hits
    est.l1_misses = est.cache_events - l1_hits
    est.l2_hits = l2_hits
    est.l2_misses = est.l1_misses - l2_hits
    line_bytes = l1.line_bytes
    # A PIM atomic reads and writes half its bytes in memory, as
    # GraphPimBackend.account charges it.
    pim_bytes = est.pim_events * (backend.pim_bytes_per_op // 2)
    est.dram_read_bytes = est.l2_misses * line_bytes + pim_bytes
    est.dram_write_bytes = l2_miss_writes * line_bytes + pim_bytes
    return est
