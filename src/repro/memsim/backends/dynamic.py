"""Dynamic hot-set identification (Section VI), made measurable."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.pisc import Microcode, PiscEngine
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import ROUTE_SP_OFFLOAD, ROUTE_SP_PLAIN

__all__ = ["DynamicScratchpadBackend"]


@register_backend("dynamic")
class DynamicScratchpadBackend(HierarchyBackend):
    """Section VI's *dynamic* hot-set identification, made measurable.

    The scratchpads are managed as a frequency-weighted vertex cache:
    any vtxProp access may allocate its vertex into the
    (hash-partitioned) pads, and on conflict the entry with the higher
    running access count stays. Hits behave like OMEGA scratchpad
    accesses (atomics offload to the PISC); misses fall through to the
    cache path and train the frequency counters. Runs on the
    *original* vertex ordering — no preprocessing pass.
    """

    def __init__(
        self,
        config: SimConfig,
        capacity_vertices: int,
        microcode: Optional[Microcode] = None,
        slots_per_set: int = 4,
    ) -> None:
        if not config.use_scratchpad:
            raise SimulationError(
                f"backend {self.name!r} needs an OMEGA-style config"
            )
        if capacity_vertices < 0:
            raise SimulationError(
                f"capacity must be >= 0, got {capacity_vertices}"
            )
        if slots_per_set <= 0:
            raise SimulationError(
                f"slots_per_set must be > 0, got {slots_per_set}"
            )
        super().__init__(config)
        self.capacity_vertices = capacity_vertices
        self.microcode = microcode
        self.slots_per_set = slots_per_set

    @property
    def _use_pisc(self) -> bool:
        return self.config.use_pisc and self.microcode is not None

    def prepare(self, ctx: ReplayContext) -> None:
        ctx.piscs = [PiscEngine(p) for p in range(ctx.ncores)]
        if self._use_pisc:
            for p in ctx.piscs:
                p.load_microcode(self.microcode)
        # The frequency trainer's state lives on the context so it
        # carries across trace segments: counts learned in segment k
        # keep deciding victims in segment k+1, exactly as they would
        # in one whole-trace pass.
        num_sets = (
            max(1, self.capacity_vertices // self.slots_per_set)
            if self.capacity_vertices > 0
            else 0
        )
        sets: List[dict] = [dict() for _ in range(num_sets)]
        ctx.extra["dyn_sets"] = sets
        ctx.extra["dyn_freq"] = {}

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        n = prepass.num_events
        routes = np.zeros(n, dtype=np.int8)
        sets = ctx.extra["dyn_sets"]
        num_sets = len(sets)
        if num_sets == 0 or n == 0:
            return routes
        verts_all = np.asarray(trace.vertex, dtype=np.int64)
        cand = prepass.vtxprop & (verts_all >= 0)
        idx = np.flatnonzero(cand)
        # Frequency training is inherently sequential (the running
        # counts decide victims), but only the vtxProp subset walks it.
        verts = verts_all[idx].tolist()
        slots = self.slots_per_set
        freq: dict = ctx.extra["dyn_freq"]
        resident_flags = [False] * len(verts)
        for j, vertex in enumerate(verts):
            count = freq.get(vertex, 0) + 1
            freq[vertex] = count
            entry_set = sets[vertex % num_sets]
            if vertex in entry_set:
                entry_set[vertex] = count
                resident_flags[j] = True
            elif len(entry_set) < slots:
                entry_set[vertex] = count
                resident_flags[j] = True
            else:
                victim = min(entry_set, key=entry_set.get)
                if entry_set[victim] < count:
                    del entry_set[victim]
                    entry_set[vertex] = count
                    resident_flags[j] = True
        resident = np.zeros(n, dtype=bool)
        resident[idx] = resident_flags
        # Dynamic pads hash by vertex id, not by the static chunked map.
        ctx.sp_home = np.where(verts_all >= 0, verts_all % ctx.ncores, 0)
        ctx.sp_local = ctx.sp_home == np.asarray(trace.core, dtype=np.int64)
        if self._use_pisc:
            off = resident & prepass.atomic
            routes[off] = ROUTE_SP_OFFLOAD
            routes[resident & ~off] = ROUTE_SP_PLAIN
        else:
            routes[resident] = ROUTE_SP_PLAIN
        return routes

    def tag_overhead_fraction(self, vtxprop_entry_bytes: int,
                              tag_bytes: int = 4) -> float:
        """Storage overhead of the dynamic approach's per-entry tags.

        The paper's rejection argument: "2x overhead for BFS assuming
        32 bits per tag entry and 32 bits per vtxProp entry".
        """
        if vtxprop_entry_bytes <= 0:
            raise SimulationError(
                f"entry bytes must be > 0, got {vtxprop_entry_bytes}"
            )
        return tag_bytes / vtxprop_entry_bytes
