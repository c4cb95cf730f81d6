"""The backend protocol: a memory hierarchy as a routing policy.

Subclasses validate their configuration in ``__init__``, spin up any
private structures in :meth:`HierarchyBackend.prepare` (source
buffers, training state), assign one ``ROUTE_*`` code per event in
:meth:`HierarchyBackend.route`, and charge everything that is not the
stateful cache path in :meth:`HierarchyBackend.account` (vectorized).
The template :meth:`HierarchyBackend.replay` delegates to the shared
driver (:func:`repro.memsim.replay.run_replay`), which owns the
pre-pass, the cache stage, and the per-core access counts.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import Trace
from repro.memsim.accounting import (
    ReplayContext,
    account_offload,
    account_sp_plain,
    account_sp_rmw,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import Microcode
from repro.memsim.prepass import TracePrepass
from repro.memsim.replay import ReplayOutput, run_replay
from repro.memsim.routes import (
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
)
from repro.obs.timeline import ReplaySampler

__all__ = ["HierarchyBackend"]


class HierarchyBackend:
    """A memory hierarchy as a routing policy over the shared engine."""

    #: Registry name; set by :func:`register_backend`.
    name = "?"

    #: Replay the cache path through the per-event scalar oracle
    #: instead of the batch kernel (reference semantics for parity
    #: checks and benchmarks). ``run_system`` copies its
    #: :class:`repro.core.context.RunContext.scalar_cache` here.
    scalar_cache = False

    #: In-memory memo of cache-path results
    #: (:class:`repro.store.ResultMemo`), or ``None``. ``run_system``
    #: copies its context store's :attr:`~repro.store.TraceStore.cache_path_memo`
    #: here; the replay driver uses it only for an in-core, unsampled,
    #: unattributed replay, whose cache path is one kernel batch.
    cache_memo = None

    #: Off-chip bytes charged per in-memory atomic (non-zero only for
    #: PIM-style backends); read by the attribution accumulator so its
    #: per-class DRAM folds mirror the backend's accounting.
    pim_bytes_per_op = 0

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.dram_random_ranges = ()
        self.microcode: Optional[Microcode] = None

    def _check_mapping(self, mapping: ScratchpadMapping) -> None:
        """Reject a mapping spread over a different number of pads than
        the config has cores (its ops would home on missing pads)."""
        if mapping.num_cores != self.config.core.num_cores:
            raise ConfigError(
                f"backend {self.name!r}: the scratchpad mapping spans"
                f" {mapping.num_cores} pads but the config has"
                f" {self.config.core.num_cores} cores"
            )

    # -- hooks ---------------------------------------------------------
    def prepass_mapping(self) -> Optional[ScratchpadMapping]:
        """Mapping used by the pre-pass for hot/home/local columns."""
        return None

    def prepare(self, ctx: ReplayContext) -> None:
        """Create backend-private structures before routing."""

    def route(self, ctx: ReplayContext, trace: Trace,
              prepass: TracePrepass) -> np.ndarray:
        """Assign one ROUTE_* code per event (default: all cache)."""
        return np.zeros(prepass.num_events, dtype=np.int8)

    def account(self, ctx: ReplayContext, trace: Trace,
                prepass: TracePrepass, routes: np.ndarray) -> None:
        """Batch-account all non-cache routes (scratchpad family)."""
        home = ctx.sp_home if ctx.sp_home is not None else prepass.home
        local = ctx.sp_local if ctx.sp_local is not None else prepass.local
        account_sp_plain(
            ctx, trace, prepass, np.flatnonzero(routes == ROUTE_SP_PLAIN),
            home, local,
        )
        account_sp_rmw(
            ctx, trace, prepass, np.flatnonzero(routes == ROUTE_SP_RMW),
            home, local,
        )
        off = np.flatnonzero(routes == ROUTE_SP_OFFLOAD)
        if len(off):
            account_offload(
                ctx, trace, prepass, off, self.microcode, home, local
            )

    def finalize(self, ctx: ReplayContext) -> None:
        """Post-accounting fixups (e.g. fold PIM occupancy)."""

    # -- the engine ----------------------------------------------------
    def replay(self, source: Union[Trace, SegmentedTrace],
               sampler: Optional[ReplaySampler] = None,
               attribution=None) -> ReplayOutput:
        """Replay an in-core trace or a segmented stream.

        Every piece runs the shared stages: pre-pass, route, cache
        path, accounting. Delegates to
        :func:`repro.memsim.replay.run_replay`; see its docstring for
        the streaming, windowed-sampling and attribution contracts.
        """
        return run_replay(self, source, sampler, attribution)
