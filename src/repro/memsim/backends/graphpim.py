"""GraphPIM-style alternative: vtxProp atomics execute in memory."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import ROUTE_PIM

__all__ = ["GraphPimBackend", "PimConfig"]


class PimConfig:
    """Parameters of the off-chip PIM atomic units (GraphPIM-style)."""

    def __init__(
        self,
        op_cycles: int = 8,
        units: int = 32,
        bytes_per_op: int = 16,
        issue_cycles: int = 1,
    ) -> None:
        if units <= 0:
            raise SimulationError(f"PIM needs >= 1 unit, got {units}")
        #: DRAM-side read-modify-write latency charged as occupancy.
        self.op_cycles = op_cycles
        #: Number of PIM units (one per vault/channel slice).
        self.units = units
        #: Off-chip bytes per atomic (HMC-style 16-byte atomics).
        self.bytes_per_op = bytes_per_op
        #: Core-side cost of issuing the offload packet.
        self.issue_cycles = issue_cycles


@register_backend("graphpim")
class GraphPimBackend(HierarchyBackend):
    """GraphPIM-style: vtxProp atomics execute in off-chip memory.

    Non-atomic traffic uses the full (baseline-sized) cache hierarchy;
    every vtxProp atomic becomes a fire-and-forget packet to a PIM unit
    chosen by vertex id, costing off-chip bytes and PIM occupancy
    instead of core stalls.
    """

    def __init__(self, config: SimConfig,
                 pim: Optional[PimConfig] = None) -> None:
        if config.use_scratchpad:
            raise SimulationError(
                f"backend {self.name!r} uses the full cache hierarchy; pass a"
                " baseline-style config"
            )
        super().__init__(config)
        self.pim = pim or PimConfig()
        self.pim_bytes_per_op = self.pim.bytes_per_op

    def prepare(self, ctx: ReplayContext) -> None:
        ctx.extra["pim_busy"] = [0] * self.pim.units

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        routes = np.zeros(prepass.num_events, dtype=np.int8)
        routes[prepass.vtxprop & prepass.atomic] = ROUTE_PIM
        return routes

    def account(self, ctx: ReplayContext, trace: Trace,
                prepass: TracePrepass, routes: np.ndarray) -> None:
        idx = np.flatnonzero(routes == ROUTE_PIM)
        if len(idx) == 0:
            return
        stats = ctx.stats
        pim = self.pim
        n = len(idx)
        cores = np.asarray(trace.core[idx], dtype=np.int64)
        stats.atomics_total += n
        stats.atomics_offloaded += n
        counts = np.bincount(cores, minlength=ctx.ncores)
        serial = ctx.ledger.serial["pim"]
        for c in range(ctx.ncores):
            serial[c] += float(counts[c]) * pim.issue_cycles
        verts = trace.vertex[idx]
        units = np.where(verts >= 0, verts % pim.units, 0)
        busy = np.bincount(units, minlength=pim.units) * pim.op_cycles
        pim_busy = ctx.extra["pim_busy"]
        for u in range(pim.units):
            pim_busy[u] += int(busy[u])
        # The atomic's RMW happens in memory: off-chip bytes, no
        # cache-line fetch.
        half = pim.bytes_per_op // 2
        stats.dram_read_bytes += n * half
        stats.dram_write_bytes += n * half

    def finalize(self, ctx: ReplayContext) -> None:
        # Report PIM occupancy through the same channel the core model
        # reads PISC occupancy from (max over units bounds the run).
        per_core = [0] * ctx.ncores
        for u, busy in enumerate(ctx.extra["pim_busy"]):
            per_core[u % ctx.ncores] += busy
        ctx.stats.pisc_occupancy = per_core
