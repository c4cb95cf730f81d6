"""Dynamic hot-set identification (Section VI), made measurable."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.intsort import stable_argsort
from repro.ligra.trace import Trace
from repro.memsim.accounting import ReplayContext
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.backends.registry import register_backend
from repro.memsim.pisc import Microcode
from repro.memsim.prepass import TracePrepass
from repro.memsim.routes import ROUTE_SP_OFFLOAD, ROUTE_SP_PLAIN

__all__ = ["DynamicScratchpadBackend", "FrequencyTrainer"]


def _group_ranks(keys: np.ndarray) -> tuple:
    """Stable grouping of ``keys``: (order, group starts, rank of each
    element among the earlier elements with its key)."""
    order = stable_argsort(keys)
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys)) - np.repeat(starts, sizes)
    return order, starts, ranks


class FrequencyTrainer:
    """The dynamic pads' frequency trainer as a rank over running counts.

    The trainer it models walks every access: the vertex's running
    count goes up by one, and the vertex stays in (or enters) its
    hash set when it is already resident, the set has a free slot, or
    the set's smallest resident count is below the new count (that
    entry is evicted). Once a set is full, no non-resident count
    exceeds a resident count, so residency is a top-``slots`` rank by
    count, and which of several tied vertices holds a slot never
    changes a later outcome. Hence: an access whose vertex had count
    ``c`` just before it leaves the vertex resident iff fewer than
    ``slots`` *other* vertices of its set have a running count above
    ``c`` at that moment. Those are the set's vertices whose count
    carried into the piece is above ``c``, plus the earlier accesses
    of the piece in the set that lift their vertex to ``c + 1`` — the
    access's rank in that group.

    The carried state is the per-vertex count array and, per set, the
    top-``slots`` (vertex, count) table, which bounds the carried term
    exactly. The table is updated from the vertices a piece touched
    only, so short pieces (windows, small segments) never rescan every
    vertex.
    """

    def __init__(self, num_sets: int, slots: int) -> None:
        self.num_sets = num_sets
        self.slots = slots
        #: Running access count per vertex id.
        self.counts = np.zeros(0, dtype=np.int64)
        #: Per set, the vertices with the ``slots`` highest counts,
        #: highest first (-1 for an unused entry), and their counts (0
        #: there).
        self._top = np.full((num_sets, slots), -1, dtype=np.int64)
        self._top_counts = np.zeros((num_sets, slots), dtype=np.int64)

    def train(self, verts: np.ndarray) -> np.ndarray:
        """Train on one piece and return its residency flags.

        ``verts`` holds the piece's vertex ids (>= 0) in access order;
        flag ``i`` says whether access ``i`` leaves its vertex resident.
        """
        n = len(verts)
        if n == 0:
            return np.zeros(0, dtype=bool)
        order, starts, seen = _group_ranks(verts)
        touched = verts[order[starts]]
        if touched[-1] >= len(self.counts):
            grown = np.zeros(max(int(touched[-1]) + 1, 2 * len(self.counts)),
                             dtype=np.int64)
            grown[:len(self.counts)] = self.counts
            self.counts = grown
        prior = self.counts[verts] + seen
        sets = verts % self.num_sets
        _, _, lifted = _group_ranks(sets * (int(prior.max()) + 1) + prior)
        # Fewer than slots - lifted carried counts above prior, i.e. the
        # set's (slots - lifted)-th largest carried count is <= prior
        # (each table row is sorted by count, descending).
        room = self.slots - 1 - lifted
        resident = room >= 0
        resident &= self._top_counts.ravel()[
            sets * self.slots + np.maximum(room, 0)] <= prior
        self.counts[touched] += np.diff(np.r_[starts, n])
        self._retop(touched)
        return resident

    def _retop(self, touched: np.ndarray) -> None:
        """Rebuild the top tables of the sets ``touched`` falls in."""
        touched_sets = np.unique(touched % self.num_sets)
        old = self._top[touched_sets].ravel()
        cand = np.union1d(old[old >= 0], touched)
        cand_sets = cand % self.num_sets
        cand_counts = self.counts[cand]
        order = np.lexsort((-cand_counts, cand_sets))
        cand_sets = cand_sets[order]
        _, _, rank = _group_ranks(cand_sets)
        keep = rank < self.slots
        rows, cols = cand_sets[keep], rank[keep]
        self._top[touched_sets] = -1
        self._top_counts[touched_sets] = 0
        self._top[rows, cols] = cand[order][keep]
        self._top_counts[rows, cols] = cand_counts[order][keep]


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
        # The frequency trainer lives on the context so it carries
        # across trace segments: counts learned in segment k keep
        # deciding residency in segment k+1, exactly as they would in
        # one whole-trace pass.
        num_sets = (
            max(1, self.capacity_vertices // self.slots_per_set)
            if self.capacity_vertices > 0
            else 0
        )
        ctx.extra["dyn_trainer"] = FrequencyTrainer(num_sets,
                                                    self.slots_per_set)

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        n = prepass.num_events
        routes = np.zeros(n, dtype=np.int8)
        trainer: FrequencyTrainer = ctx.extra["dyn_trainer"]
        if trainer.num_sets == 0 or n == 0:
            return routes
        verts = trace.vertex
        idx = np.flatnonzero(prepass.vtxprop & (verts >= 0))
        resident = np.zeros(n, dtype=bool)
        # The trainer's count keys need int64; only the trained subset
        # is widened.
        resident[idx] = trainer.train(verts[idx].astype(np.int64))
        # Dynamic pads hash by vertex id, not by the static chunked map.
        ctx.sp_home = np.where(verts >= 0, verts % ctx.ncores, 0)
        ctx.sp_local = ctx.sp_home == trace.core
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
