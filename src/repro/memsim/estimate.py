"""Analytic fast-path estimator: predict replay counters without replay.

The replay engine's cost is its stateful cache kernel. This module
predicts the MemStats-level headline counters — cache hit rates, DRAM
read traffic, scratchpad/offload shares — from trace *structure*
alone, in a handful of vectorized passes:

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
   those misses as a dirty-eviction proxy.

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
from typing import Dict

import numpy as np

from repro.config import SimConfig
from repro.intsort import stable_argsort
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

__all__ = ["ReplayEstimate", "estimate_replay", "predict_slot_hits"]


@dataclass
class ReplayEstimate:
    """Predicted headline counters for one (backend, trace) pair.

    Route-derived fields (``sp_*``, ``offloads``, ``srcbuf_hits``,
    ``locked_events``, ``pim_events``) are exact; cache-level fields
    (``l1_*``, ``l2_*``, ``dram_*``) come from the reuse-gap model.
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

    The rule only looks back, so it needs no key-major order: in
    slot-major, batch-stable order a slot's accesses are contiguous,
    and "the nearest same-key access is at most ``ways`` back" is
    "one of the previous ``ways`` positions holds the same ``(slot,
    key)``". That is one radix slot sort plus ``ways`` shifted
    compares; slot and key are compared separately, so any key width
    works; keys are offset by their minimum straight into int32 (no
    int64 temporary) unless their span needs int64, then gathered.

    The gap counts slot *accesses*, not distinct lines, so repeated
    touches of one hot line inflate the gap and the model errs toward
    predicting misses (pessimistic for hits, conservative for DRAM
    traffic). Everything is vectorized; no per-event Python loop.
    """
    n = len(slots)
    out = np.zeros(n, dtype=bool)
    if n < 2 or ways <= 0:
        return out
    slots = np.asarray(slots)
    keys = np.asarray(keys)
    so = stable_argsort(slots)
    ss = slots[so]
    kmin = int(keys.min())
    kdt = np.int32 if int(keys.max()) - kmin <= np.iinfo(np.int32).max else np.int64
    ks = np.empty(n, dtype=kdt)
    np.subtract(keys, kmin, out=ks, casting="unsafe")
    ks = ks[so]
    hit = np.zeros(n, dtype=bool)
    same = np.empty(n, dtype=bool)
    for d in range(1, min(ways, n - 1) + 1):
        m = n - d
        np.equal(ks[d:], ks[:-d], out=same[:m])
        same[:m] &= ss[d:] == ss[:-d]
        hit[d:] |= same[:m]
    out[so] = hit
    return out


def _slot_column(owner, keys, nsets: int, nowners: int) -> np.ndarray:
    """``owner * nsets + keys % nsets``, in int16 whenever every slot
    fits."""
    dt = np.int16 if nowners * nsets <= np.iinfo(np.int16).max else np.int32
    col = owner.astype(dt)
    col *= nsets
    col += (keys % nsets).astype(dt, copy=False)
    return col


def estimate_replay(backend, trace: Trace) -> ReplayEstimate:
    """Predict replay counters for ``trace`` through ``backend``.

    Runs the backend's real prepare/route stages (so the estimate
    sees the same routing a replay would — including training-state
    routes like the dynamic scratchpad's frequency filter) and then
    the closed-form cache model of :func:`predict_slot_hits` instead
    of the stateful kernel. Costs one radix slot sort plus ``ways``
    shifted compares of the cache-routed subset per cache level;
    never touches :meth:`CacheSystem.replay_cache_path`.
    """
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

    prepass = precompute(trace, config, mapping=backend.prepass_mapping())
    routes = backend.route(ctx, trace, prepass)

    est = ReplayEstimate(events=int(prepass.num_events))
    counts = np.bincount(routes, minlength=int(ROUTE_PIM) + 1)
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
    if not est.cache_events:
        return est

    # Select cache-routed events with a bool mask (no index array), and
    # read the prepass and trace columns in place when nothing else is
    # routed — the cache-only backends' common case.
    everything = est.cache_events == est.events
    cache = None if everything else routes == ROUTE_CACHE
    lines = prepass.lines if everything else prepass.lines[cache]
    core_dt = core_id_dtype(ncores)
    cores = trace.core if everything else trace.core[cache].astype(core_dt)
    l1_hit = predict_slot_hits(
        _slot_column(cores, lines, config.l1.num_sets, ncores),
        lines, config.l1.ways,
    )
    del lines, cores
    est.l1_hits = int(np.count_nonzero(l1_hit))
    est.l1_misses = est.cache_events - est.l1_hits

    # The L1 misses as a mask over every event: only they get bank keys.
    if everything:
        miss = ~l1_hit
    else:
        miss = cache
        miss[cache] = ~l1_hit
    del l1_hit
    geometry = BankGeometry(num_banks=ncores,
                            line_bytes=config.l1.line_bytes)
    bank_keys = geometry.bank_keys_of(prepass.lines[miss])
    l2 = config.l2_per_core
    l2_hit = predict_slot_hits(
        _slot_column(prepass.banks[miss], bank_keys, l2.num_sets, ncores),
        bank_keys, l2.ways,
    )
    est.l2_hits = int(np.count_nonzero(l2_hit))
    est.l2_misses = est.l1_misses - est.l2_hits

    line_bytes = config.l1.line_bytes
    est.dram_read_bytes = est.l2_misses * line_bytes
    l2_miss_writes = np.count_nonzero(prepass.write[miss] & ~l2_hit)
    est.dram_write_bytes = int(l2_miss_writes) * line_bytes
    return est
