"""Batch accounting: fold routed event families into the counters.

Everything that is not the stateful cache path is charged here, in
numpy, over whole route subsets at once: per-core latency sums fold
with ``np.bincount`` (which accumulates each core's partial sum in
event order, so the results are bit-identical to a per-event scalar
loop), and traffic/occupancy counters are plain reductions.

:class:`ReplayContext` is the mutable bag of per-replay state the
engine shares with a backend: the model objects, the stats sink, and
backend-supplied routing overrides.

Segmented replay adds one wrinkle: float sums are association
sensitive, so a per-core latency total accumulated segment by segment
would drift (harmlessly, but measurably) from the whole-trace sum.
:class:`LatencyLedger` removes the drift by construction — every
latency family accumulates into its own per-core running sum with
``np.add.at`` (an ordered, unbuffered element loop, so folding a
stream in segments is the *same* binary-addition sequence as folding
it whole), and :meth:`LatencyLedger.flush` rebuilds the stats totals
in a fixed family order. Streamed and in-core replays therefore
produce bit-identical ``core_mem_latency`` / ``core_serial_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SimConfig
from repro.ligra.trace import Trace
from repro.memsim.cachestate import CacheSystem
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.pisc import Microcode
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import transfer_latency_many
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.memsim.stats import MemStats

__all__ = [
    "ReplayContext",
    "LatencyLedger",
    "MEM_FAMILIES",
    "SERIAL_FAMILIES",
    "account_latencies",
    "account_sp_plain",
    "account_sp_rmw",
    "account_offload",
]

#: Latency families that contribute to ``core_mem_latency``, in the
#: (fixed) order :meth:`LatencyLedger.flush` sums them.
MEM_FAMILIES = ("cache", "srcbuf", "sp_plain", "sp_rmw", "locked")

#: Families that contribute to ``core_serial_cycles``, in flush order.
SERIAL_FAMILIES = ("cache", "sp_plain", "sp_rmw", "locked", "offload", "pim")


class LatencyLedger:
    """Segment-order-invariant per-core latency accumulation.

    One running per-core sum per latency family. Each family folds its
    events with ``np.add.at`` (sequential element adds), so feeding the
    same event stream in one batch or in many segments performs the
    identical float-addition sequence; :meth:`flush` then *overwrites*
    the stats totals as a fixed-family-order sum of the running sums.
    The result: per-core latencies are bit-identical however the trace
    was chunked — whole, windowed, or streamed segment by segment.
    """

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self.mem = {f: [0.0] * ncores for f in MEM_FAMILIES}
        self.serial = {f: [0.0] * ncores for f in SERIAL_FAMILIES}

    @staticmethod
    def _fold(target: List[float], cores: np.ndarray,
              weights: np.ndarray) -> None:
        # np.add.at is unbuffered: element j adds into the sum left by
        # element j-1, continuing exactly from the carried-in totals.
        sums = np.asarray(target, dtype=np.float64)
        np.add.at(sums, cores, weights)
        target[:] = sums.tolist()

    def add_mem(self, family: str, cores: np.ndarray,
                weights: np.ndarray) -> None:
        """Fold overlappable memory latency into ``family``'s sums."""
        self._fold(self.mem[family], cores, weights)

    def add_serial(self, family: str, cores: np.ndarray,
                   weights: np.ndarray) -> None:
        """Fold pipeline-serialized cycles into ``family``'s sums."""
        self._fold(self.serial[family], cores, weights)

    def flush(self, stats: MemStats) -> None:
        """Overwrite the stats' per-core totals from the family sums.

        Idempotent and cheap; the driver calls it before every timeline
        snapshot and once at the end of the replay.
        """
        for c in range(self.ncores):
            mem = 0.0
            for family in MEM_FAMILIES:
                mem += self.mem[family][c]
            stats.core_mem_latency[c] = mem
            srl = 0.0
            for family in SERIAL_FAMILIES:
                srl += self.serial[family][c]
            stats.core_serial_cycles[c] = srl


@dataclass
class ReplayContext:
    """Mutable per-replay state shared between the engine and a backend."""

    config: SimConfig
    stats: MemStats
    dram: DramModel
    crossbar: Crossbar
    system: CacheSystem
    ncores: int
    #: Per-family latency accumulation (segment-order invariant).
    ledger: LatencyLedger
    srcbufs: Optional[List[SourceVertexBuffer]] = None
    #: Backend-supplied scratchpad home/locality overrides (the dynamic
    #: backend homes by ``vertex % ncores`` instead of the mapping).
    sp_home: Optional[np.ndarray] = None
    sp_local: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)


def account_latencies(ctx: ReplayContext, cores: np.ndarray,
                      lat: np.ndarray, atomic: np.ndarray,
                      family: str = "sp_plain") -> None:
    """Fold per-event latencies into the per-core sums.

    Atomic events get the core-executed split: a fraction of the
    latency (plus the fixed stall) serializes the pipeline, the rest
    overlaps as ordinary memory latency. ``family`` names the ledger
    bucket the latencies land in (see :class:`LatencyLedger`).
    """
    stats = ctx.stats
    core_cfg = ctx.config.core
    ser = core_cfg.atomic_serialization
    stall = core_cfg.atomic_stall_cycles
    n_atomic = int(np.count_nonzero(atomic))
    mem = np.where(atomic, lat * (1.0 - ser), lat)
    ctx.ledger.add_mem(family, cores, mem)
    if n_atomic:
        stats.atomics_total += n_atomic
        stats.atomics_on_cores += n_atomic
        srl = np.where(atomic, lat * ser + stall, 0.0)
        ctx.ledger.add_serial(family, cores, srl)


def account_sp_plain(ctx: ReplayContext, trace: Trace,
                     prepass: TracePrepass, idx: np.ndarray,
                     home: np.ndarray, local_mask: np.ndarray) -> None:
    """Plain scratchpad reads/writes: word packets, SP latency."""
    if len(idx) == 0:
        return
    stats = ctx.stats
    config = ctx.config
    cores = np.asarray(trace.core[idx], dtype=np.int64)
    local = local_mask[idx]
    n = len(idx)
    remote = ~local
    n_remote = int(np.count_nonzero(remote))
    n_local = n - n_remote
    stats.sp_local_accesses += n_local
    stats.sp_plain_local += n_local
    stats.sp_remote_accesses += n_remote
    stats.sp_plain_remote += n_remote
    lat = np.full(n, float(config.scratchpad.latency_cycles))
    if n_remote:
        header = config.interconnect.header_bytes
        lat[remote] += transfer_latency_many(
            ctx.crossbar, cores[remote], home[idx][remote]
        )
        rbytes = int(prepass.nbytes[idx][remote].sum(dtype=np.int64))
        stats.onchip_word_bytes += rbytes + n_remote * header
    account_latencies(ctx, cores, lat, prepass.atomic[idx],
                      family="sp_plain")


def account_sp_rmw(ctx: ReplayContext, trace: Trace,
                   prepass: TracePrepass, idx: np.ndarray,
                   home: np.ndarray, local_mask: np.ndarray) -> None:
    """Core-executed RMW on scratchpad words (OMEGA without PISCs)."""
    if len(idx) == 0:
        return
    stats = ctx.stats
    config = ctx.config
    cores = np.asarray(trace.core[idx], dtype=np.int64)
    local = local_mask[idx]
    n = len(idx)
    remote = ~local
    n_remote = int(np.count_nonzero(remote))
    stats.sp_local_accesses += n - n_remote
    stats.sp_remote_accesses += n_remote
    # Read + write of the word.
    lat = np.full(n, float(config.scratchpad.latency_cycles * 2))
    if n_remote:
        header = config.interconnect.header_bytes
        lat[remote] += 2.0 * transfer_latency_many(
            ctx.crossbar, cores[remote], home[idx][remote]
        )
        rbytes = int(prepass.nbytes[idx][remote].sum(dtype=np.int64))
        stats.onchip_word_bytes += 2 * (rbytes + n_remote * header)
    account_latencies(ctx, cores, lat, np.ones(n, dtype=bool),
                      family="sp_rmw")


def account_offload(ctx: ReplayContext, trace: Trace,
                    prepass: TracePrepass, idx: np.ndarray,
                    microcode: Microcode, home: np.ndarray,
                    local_mask: np.ndarray) -> None:
    """Fire-and-forget PISC offloads: issue cost + pad occupancy."""
    if len(idx) == 0:
        return
    stats = ctx.stats
    config = ctx.config
    n = len(idx)
    cores = np.asarray(trace.core[idx], dtype=np.int64)
    n_atomic = int(np.count_nonzero(prepass.atomic[idx]))
    stats.atomics_total += n_atomic
    stats.atomics_offloaded += n_atomic
    stats.pisc_ops += n
    issue = config.core.offload_issue_cycles
    counts = np.bincount(cores, minlength=ctx.ncores)
    # Exact integer counts times an integer issue cost: order-free, but
    # still routed through the ledger because flush() overwrites.
    serial = ctx.ledger.serial["offload"]
    for c in range(ctx.ncores):
        serial[c] += float(counts[c]) * issue

    # Each op occupies its home pad's PISC for the microcode's cycles.
    ops = np.bincount(np.asarray(home[idx], dtype=np.int64),
                      minlength=ctx.ncores)
    occupancy = stats.pisc_occupancy
    for p in range(ctx.ncores):
        occupancy[p] += int(ops[p]) * microcode.cycles

    local = local_mask[idx]
    n_remote = int(np.count_nonzero(~local))
    stats.sp_local_accesses += n - n_remote
    stats.sp_remote_accesses += n_remote
    if n_remote:
        header = config.interconnect.header_bytes
        rbytes = int(prepass.nbytes[idx][~local].sum(dtype=np.int64))
        stats.onchip_word_bytes += rbytes + n_remote * header
