"""Vectorized trace pre-pass: classify the whole trace before replay.

The replay engine splits every simulation into a *stateless* batch
stage and a *stateful* loop. This module is the batch stage: given a
columnar :class:`~repro.ligra.trace.Trace`, it computes — in numpy,
over all events at once — everything a replay needs that does not
depend on cache or directory state:

- flag decoding (write / atomic / source-read / update masks),
- cache-line ids and home banks
  (:class:`~repro.memsim.geometry.BankGeometry`),
- region/access-class lookup (the vectorized twin of
  :meth:`repro.ligra.trace.AddressSpace.classify`),
- hot-vertex membership and scratchpad-home computation (via
  :class:`~repro.memsim.mapping.ScratchpadMapping`),
- word-granularity access sizes (clamped to the 8-byte scratchpad
  port).

Everything stateful happens after it: cache, directory, prefetcher
and DRAM-row state in the cache path
(:meth:`~repro.memsim.cachestate.CacheSystem.replay_cache_path`, a
chain of exact batch stages), the source buffers' LRU in the OMEGA
backend's route stage.

The stream prefetcher's state lives here too. The detector is
inherently sequential (each observation rotates per-core stream
heads), so :class:`StreamDetector` offers the exact per-event
``observe`` the scalar oracle drives on L1 misses, plus a ``flags``
form that feeds a whole (core, line) sequence through ``observe`` — a
convenience for tests. The batch kernel walks the same heads in
:func:`~repro.memsim.stages.prefetch_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.config import SimConfig
from repro.ligra.trace import (
    AccessClass,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_UPDATE,
    FLAG_WRITE,
    Region,
    Trace,
)
from repro.memsim.geometry import BankGeometry
from repro.memsim.mapping import ScratchpadMapping

__all__ = [
    "TracePrepass",
    "precompute",
    "core_id_dtype",
    "classify_regions",
    "StreamDetector",
]

#: Scratchpad word-port width: accesses are clamped to 8 bytes.
SP_WORD_BYTES = 8


def classify_regions(
    regions: Sequence[Region], addrs: np.ndarray
) -> np.ndarray:
    """Vectorized region classification.

    The numpy twin of :meth:`repro.ligra.trace.AddressSpace.classify`:
    each address gets the access class of the *first* region (in
    allocation order) containing it, or ``NGRAPH`` when unmapped.
    """
    addrs = np.asarray(addrs)
    out = np.full(len(addrs), int(AccessClass.NGRAPH), dtype=np.int8)
    # Later assignments overwrite earlier ones, so walking the regions
    # in reverse makes the first allocated region win ties, matching
    # the scalar first-match scan.
    for region in reversed(list(regions)):
        inside = (addrs >= region.base) & (addrs < region.end)
        out[inside] = int(region.access_class)
    return out


@dataclass
class TracePrepass:
    """Per-event arrays derived from a trace before the stateful loop.

    All arrays are indexed by event position in the (replay-order)
    trace. Each column is only as wide as its range: ``banks`` and
    ``home`` hold core ids in :func:`core_id_dtype`, ``nbytes`` is
    int8. ``hot``/``home``/``local`` are only populated when a
    scratchpad mapping is supplied; otherwise they are read-only
    broadcasts of False / -1 / False that cost no per-event memory.
    """

    #: Decoded flag masks.
    write: np.ndarray
    atomic: np.ndarray
    src_read: np.ndarray
    update: np.ndarray
    #: Cache-line geometry per event.
    lines: np.ndarray
    banks: np.ndarray
    #: Scratchpad-word access size (bytes, clamped to the 8 B port).
    nbytes: np.ndarray
    #: vtxProp events (the monitor unit's class check).
    vtxprop: np.ndarray
    #: Scratchpad routing (mapping-dependent).
    hot: np.ndarray
    home: np.ndarray
    local: np.ndarray

    @property
    def num_events(self) -> int:
        """Number of events covered."""
        return len(self.lines)


def core_id_dtype(num_cores: int) -> np.dtype:
    """Narrowest signed integer dtype holding every core id and -1."""
    return np.min_scalar_type(-num_cores)


def precompute(
    trace: Trace,
    config: SimConfig,
    mapping: Optional[ScratchpadMapping] = None,
) -> TracePrepass:
    """Run the batch classification stage over ``trace``.

    ``mapping`` enables the hot/home/local columns for scratchpad
    backends; cache-only backends pass ``None`` and get inert,
    read-only constant columns.
    """
    geometry = BankGeometry(
        num_banks=config.core.num_cores,
        line_bytes=config.l1.line_bytes,
    )
    core_dt = core_id_dtype(config.core.num_cores)
    flags = trace.flags
    lines = geometry.lines_of(trace.addr)
    n = len(lines)
    vtxprop = trace.access_class == np.int8(int(AccessClass.VTXPROP))
    if mapping is not None and mapping.hot_capacity > 0:
        hot = vtxprop & mapping.is_hot_many(trace.vertex)
        home = mapping.home_many(trace.vertex).astype(
            core_id_dtype(mapping.num_cores))
        local = home == trace.core
    else:
        hot = local = np.broadcast_to(np.False_, (n,))
        home = np.broadcast_to(np.array(-1, dtype=core_dt), (n,))
    return TracePrepass(
        write=(flags & FLAG_WRITE) != 0,
        atomic=(flags & FLAG_ATOMIC) != 0,
        src_read=(flags & FLAG_SRC_READ) != 0,
        update=(flags & FLAG_UPDATE) != 0,
        lines=lines,
        banks=geometry.banks_of(lines).astype(core_dt),
        nbytes=np.minimum(trace.size, SP_WORD_BYTES).astype(np.int8),
        vtxprop=vtxprop,
        hot=hot,
        home=home,
        local=local,
    )


class StreamDetector:
    """Per-core stride-stream detector (the L1 prefetcher model).

    Each core tracks ``num_heads`` recent stream heads. An observed
    line equal to some head + 1 counts as *prefetched* and advances
    that head (the first matching head in slot order, exactly like a
    linear scan of the head array); otherwise the line replaces a head
    chosen round-robin, so the second line of any sequential run and
    onward is prefetched.
    """

    def __init__(self, num_cores: int, num_heads: int = 16) -> None:
        self.num_heads = num_heads
        self._heads = [[-2] * num_heads for _ in range(num_cores)]
        self._next = [0] * num_cores

    def observe(self, core: int, line: int) -> bool:
        """Feed one line; returns whether it was stream-prefetched."""
        heads = self._heads[core]
        prev = line - 1
        if prev in heads:
            heads[heads.index(prev)] = line
            return True
        slot = self._next[core]
        heads[slot] = line
        self._next[core] = (slot + 1) % self.num_heads
        return False

    def flags(self, cores, lines) -> np.ndarray:
        """Flags for a whole (core, line) sequence, one per event.

        Calls :meth:`observe` per event. No backend calls it; the
        pre-pass equivalence tests do.
        """
        cores = np.asarray(cores).tolist()
        lines = np.asarray(lines).tolist()
        observe = self.observe
        return np.fromiter(
            (observe(c, ln) for c, ln in zip(cores, lines)),
            dtype=bool,
            count=len(lines),
        )
