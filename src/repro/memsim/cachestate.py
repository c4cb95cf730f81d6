"""The stateful cache path: set-associative state and the batch kernel.

:class:`CacheSystem` owns everything a cache-routed event can touch —
per-core L1s, the banked L2, the MESI directory, the stream
prefetcher, DRAM row state — and replays pre-routed event batches over
it, charging every counter to the run's
:class:`~repro.memsim.stats.MemStats` (the models keep state only;
DRAM's row-buffer hits and misses are the one counter pair outside
it). Two execution paths produce
*bit-identical* results:

- the **scalar oracle** (:meth:`CacheSystem.access`, driven by
  :meth:`CacheSystem._replay_generic`): one event per Python
  iteration, the seed semantics. Selected by ``scalar_cache=True`` on
  :class:`CacheSystem` (threaded from the backend's ``scalar_cache``
  flag, which ``run_system`` copies from its run context).
- the **batch kernel** (:meth:`CacheSystem._replay_kernel`), a chain
  of exact stages, each one pass over the whole batch (the array
  functions live in :mod:`repro.memsim.stages`):

  1. **screen** (:func:`screen_guaranteed_hits`): one numpy sweep
     resolves every *guaranteed hit*;
  2. **L1** (:meth:`CacheSystem._l1_stage`): every core that holds a
     line has its bit in the directory mask, so a write deletes the
     line from every other L1 holding it, and each core's L1 is its own
     accesses plus those deletions. The residual events and the
     deletion candidates go, one stream per (core, L1 set), through
     :func:`~repro.memsim.stages.lru_stage`, which logs the L1 misses
     and the dirty victims;
  3. **directory** (:meth:`CacheSystem._directory_stage`): per line, the
     L1 read misses, every residual write and the dirty victims go
     through :func:`~repro.memsim.stages.directory_stage`, which logs
     each coherence action's cost and the line's end entry (stale
     sharer bits included);
  4. **prefetcher** (:meth:`CacheSystem._prefetch_stage`): each core's
     L1 misses walk its stream heads
     (:func:`~repro.memsim.stages.prefetch_walk`), the one per-event
     Python loop left;
  5. **L2** (:meth:`CacheSystem._l2_stage`): the L2 is non-inclusive
     and nothing upstream reads it, so the L1 misses and dirty victims
     replay through every L2 set at once in
     :func:`~repro.memsim.stages.lru_stage`, which logs the demand L2
     hits and the DRAM write-backs;
  6. **fold** (:meth:`CacheSystem._fold`): one vectorized pass derives
     every counter, the DRAM row-buffer outcomes, the per-event
     latencies and the optional :class:`CacheRecord` columns from the
     log.

The batch-segmentation invariant the kernel relies on
(:func:`screen_guaranteed_hits`): an event whose nearest *same-core*
same-line predecessor in the batch is slot-adjacent (no intervening
same-(core, L1-set) event) is a guaranteed L1 hit whose
``move_to_end`` is a no-op — the line is still the set's MRU entry —
so the event has **no state effect at all** and exactly ``l1_latency``
cost. Reads tolerate intervening same-line *reads by other cores*
(a read never invalidates another core's copy and a read hit never
consults the directory); writes require the immediately preceding
same-line event to be a same-core write, so the dirty bit and the
directory's exclusive-owner entry are already established and the
directory transition is idempotent. Such events never enter the
stages; their latency is the L1 latency and their hit counts
fall out of the per-core complement (events minus misses). The fold
writes every latency at its batch position, so the per-core
``np.add.at`` float fold runs in batch order exactly as the oracle's.

The kernel covers **every** interconnect topology and DRAM page
policy: mesh hop latencies come from a per-(core, bank) table, and the
open/hybrid-page row-buffer machine runs in the fold over the logged
DRAM accesses, ordered by position and phase.

A kernel batch computes a :class:`CachePathDelta` — every counter
increment (14 of them, whatever the core count), DRAM's open rows and
the per-core latency sums — before applying it. A replay from a fresh
system memoizes each batch's delta in the run's store handle
(:class:`repro.store.ResultMemo`) under a chain digest
(:meth:`CacheSystem.memo_key`): batch k's key hashes batch k-1's key
with batch k's routed columns, and the first batch's is seeded with a
digest of the cache-relevant config, so a key names the whole stream up
to and including its batch. The open rows and latency sums are stored
as totals after the batch, not increments, so the float sums stay
exact. A hit is deferred: the batch's columns are held and nothing is
applied. The first miss replays the held batches from the fresh state
and then its own, and the replay makes no more lookups (it still stores
every batch it computes); a replay that hits to the end applies the
stored deltas in order (:meth:`CacheSystem.finish`).
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from typing import Iterator, List, Optional

import numpy as np

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.intsort import stable_argsort
from repro.memsim.cache import Cache
from repro.memsim.coherence import Directory
from repro.memsim.dram import DramModel
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import StreamDetector, core_id_dtype
from repro.memsim.stages import (
    MAX_STREAM,
    OP_EVICT,
    OP_READ,
    OP_WRITE,
    bits_masks,
    directory_stage,
    lru_stage,
    mask_bits,
    prefetch_walk,
)
from repro.memsim.stats import MemStats
from repro.obs import get_tracer

__all__ = [
    "CachePathDelta",
    "CacheRecord",
    "CacheSystem",
    "KernelTelemetry",
    "iter_set_bits",
    "lru_stage",
    "screen_guaranteed_hits",
]

class CacheRecord:
    """Per-event outcome columns of one cache batch (attribution).

    Optional observability sidecar of :meth:`CacheSystem.replay_cache_path`:
    when passed, both execution paths fill one row per event — the
    oracle by differencing the counters around each access, the kernel
    from the same outcome log its counters fold from — so column sums
    reproduce the batch's ``MemStats`` deltas bit-identically.
    ``l1_hit`` *defaults* to True: only L1 misses flip it.

    ``writebacks`` counts dirty-line DRAM write-backs *triggered by*
    the event (an L1-victim's L2 insertion plus the demand miss's own
    L2 eviction can both fire, so the count reaches 2); each one is
    ``line_bytes`` of DRAM write traffic.
    """

    __slots__ = ("l1_hit", "l2_hit", "l2_miss", "prefetch", "writebacks")

    def __init__(self, n: int) -> None:
        self.l1_hit = np.ones(n, dtype=bool)
        self.l2_hit = np.zeros(n, dtype=bool)
        self.l2_miss = np.zeros(n, dtype=bool)
        self.prefetch = np.zeros(n, dtype=bool)
        self.writebacks = np.zeros(n, dtype=np.int64)


def iter_set_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, LSB first.

    Invalidation targets are the set bits of a directory sharer mask;
    both the scalar oracle and the kernel walk them with this.
    """
    pos = 0
    while mask:
        if mask & 1:
            yield pos
        mask >>= 1
        pos += 1


def screen_guaranteed_hits(
    cores: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    num_sets: int,
) -> np.ndarray:
    """Mark events that provably have *no effect* on cache state.

    Returns a boolean mask over the batch. A marked **read**
    satisfies, within the batch:

    1. its nearest preceding *same-core* event on the same cache line
       exists (that access, hit or miss, left the line resident and
       MRU in this core's L1);
    2. no other event touched the same (core, L1-set) slot in between
       (so the line is still that set's MRU entry: it cannot have been
       evicted, and the LRU touch the event would apply is a no-op);
    3. no *write* to the line intervened (only a write can invalidate
       this core's copy; reads by other cores are transparent — they
       never touch a foreign L1, and a read hit never consults the
       directory).

    A marked **write** satisfies the strict form: the immediately
    preceding same-line event is a same-core *write*, slot-adjacent —
    so the dirty bit is already set and the directory already records
    this core as the exclusive owner, making the write's directory
    transition idempotent with no invalidations or writebacks.

    Such an event is an L1 hit costing exactly ``l1_latency`` whose
    replay changes nothing: the kernel resolves it entirely in this
    vectorized pass and drops it from the stages. Every
    condition is trace-structural — valid from an *arbitrary* start
    state, dependent only on the batch's event order — which is what
    makes screening a numpy sweep.

    The slot-major formulation makes both rules two-view: a same-core
    same-line predecessor *is* the slot-predecessor when it is
    slot-adjacent (same core + same line implies same slot). Both
    rules then reduce to comparisons in line-major coordinates — the
    line order groups each line's events contiguously (batch-ordered
    within the group), so for a slot-adjacent same-line pair ``(prev,
    cur)``:

    - *read rule*: no write to the line intervenes iff the cumulative
      write count (one global cumsum over the line order — no group
      reset needed, since positions between two same-line events are
      all same-line) is equal at both positions;
    - *write rule*: nothing at all intervenes on the line iff their
      line positions are adjacent, tightened by "both are writes".
    """
    return _screen(cores, lines, writes, num_sets)[0]


def _screen(cores, lines, writes, num_sets):
    """:func:`screen_guaranteed_hits`, plus what the L1 stage reuses:
    the batch's line order (``stable_argsort(lines)``, int32), each
    event's dense line rank (int32) and the distinct lines, ascending
    (rank ``r`` is ``uniq[r]``)."""
    n = len(lines)
    lines = np.asarray(lines)
    if n < 2:
        return (np.zeros(n, dtype=bool), np.arange(n, dtype=np.int32),
                np.zeros(n, dtype=np.int32), lines.copy())
    writes = np.asarray(writes, dtype=bool)
    slot = np.asarray(cores).astype(np.int32)
    slot *= num_sets
    slot += lines % num_sets
    # Slot-major order, and which events follow one of their own slot
    # (compared before the line sort, so the slots are freed first).
    so = stable_argsort(slot)
    ss = slot[so]
    del slot
    base = ss[1:] == ss[:-1]
    del ss
    so = so.astype(np.int32)
    lo = stable_argsort(lines).astype(np.int32)
    # Line-major pass: per-event line position, running write count
    # and dense line rank.
    cw = np.cumsum(writes[lo], dtype=np.int32)
    linepos = np.empty(n, dtype=np.int32)
    linepos[lo] = np.arange(n, dtype=np.int32)
    sl = lines[lo]
    newl = np.empty(n, dtype=bool)
    newl[0] = True
    np.not_equal(sl[1:], sl[:-1], out=newl[1:])
    uniq = sl[newl]
    del sl
    rank = np.empty(n, dtype=np.int32)
    rank[lo] = np.cumsum(newl, dtype=np.int32) - 1
    del newl
    # Slot-major pass: test each event against its slot predecessor.
    sl = rank[so]
    base &= sl[1:] == sl[:-1]
    del sl
    sw = writes[so]
    p = linepos[so]
    del linepos
    pprev = p[:-1]
    pcur = p[1:]
    ok = base & np.where(
        sw[1:],
        sw[:-1] & (pcur == pprev + 1),
        cw[pcur] == cw[pprev],
    )
    out = np.zeros(n, dtype=bool)
    out[so[1:][ok]] = True
    return out, lo, rank, uniq


class KernelTelemetry:
    """Aggregate screening counters across a system's kernel batches.

    One instance lives on each :class:`CacheSystem` and accumulates
    over every kernel batch the system replays (all segments and
    windows of a run), so the totals answer "how much of this run's
    cache path was resolved by the screen alone" — the
    manifest's ``replay.kernel`` block and the Perfetto counter track
    both read from here. The scalar oracle path never touches it:
    ``batches`` stays 0 and the replay block reports mode "scalar".

    A batch served from the cache-path memo reports the screening
    counters of the replay it reuses, so ``screened +
    serialized_events == events`` holds either way; ``reused`` counts
    the events of batches found in the memo. A found batch is replayed
    through the stages after all when a later batch of the same replay
    misses, to rebuild the cache state that batch starts from.
    """

    __slots__ = ("batches", "events", "screened", "serialized_events",
                 "reused")

    def __init__(self) -> None:
        self.batches = 0
        self.events = 0
        self.screened = 0
        self.serialized_events = 0
        self.reused = 0

    def observe(self, events: int, screened: int) -> None:
        """Fold one kernel batch's screening outcome into the totals."""
        self.batches += 1
        self.events += events
        self.screened += screened
        self.serialized_events += events - screened

    @property
    def screened_fraction(self) -> float:
        """Screened share of all kernel-replayed cache events."""
        return self.screened / self.events if self.events else 0.0

    def as_dict(self) -> dict:
        """The manifest shape of the counters (JSON-safe)."""
        return {
            "batches": self.batches,
            "events": self.events,
            "screened": self.screened,
            "screened_fraction": round(self.screened_fraction, 6),
            "serialized_events": self.serialized_events,
            "reused": self.reused,
        }


#: ``MemStats`` fields the cache path increments, in delta order.
_STAT_FIELDS = (
    "l1_hits", "l1_misses", "l2_hits", "l2_misses", "prefetch_hits",
    "onchip_line_bytes", "onchip_word_bytes", "coherence_invalidations",
    "dram_read_bytes", "dram_write_bytes", "atomics_total",
    "atomics_on_cores",
)
#: ``DramModel`` row-buffer counters the cache path increments.
_DRAM_FIELDS = ("row_hits", "row_misses")


class CachePathDelta:
    """What one kernel batch changes outside the cache state itself.

    ``counters`` holds one integer increment per
    :meth:`CacheSystem._counter_slots` entry (the ``MemStats`` fields
    the cache path moves, then DRAM's row hits and misses). ``open_rows`` is DRAM's
    open-row register file after the batch (``None`` under the closed
    page policy), and ``mem_lat``/``serial`` are the per-core latency
    sums after the batch. ``events``/``screened`` are the batch's
    screening counts. A delta is plain data: applying it twice to two
    fresh systems leaves both with identical counters, which is what
    lets :class:`~repro.store.ResultMemo` hand one batch's delta to a
    second replay of the same stream.
    """

    __slots__ = ("events", "screened", "counters", "open_rows", "mem_lat",
                 "serial")

    def __init__(self, events: int, screened: int, counters: tuple,
                 open_rows, mem_lat: list, serial: list) -> None:
        self.events = events
        self.screened = screened
        self.counters = counters
        self.open_rows = open_rows
        self.mem_lat = mem_lat
        self.serial = serial


class _ResidualLog:
    """Per-event outcomes the stages log for the fold.

    Every entry is a batch position (or a value aligned with one), in
    batch order. The L1 stage sets the L1 misses and the dirty victims;
    the directory stage the coherence actions; the prefetcher walk the
    prefetch hits; the L2 stage the demand L2 hits and the DRAM
    write-backs. Nothing here
    is a counter: :meth:`CacheSystem._fold` derives every counter,
    latency and record column from this log.
    """

    __slots__ = (
        "l1_miss", "l2_hit", "prefetch", "coh_at", "coh_code",
        "victim_at", "victim_line", "wb_order", "wb_addr",
    )

    def __init__(self) -> None:
        #: L1 misses; demand L2 hits among them; stream-prefetch hits.
        self.l1_miss: List[int] = []
        self.l2_hit: List[int] = []
        self.prefetch: List[int] = []
        #: Directory actions with a cost: position and
        #: ``2 * invalidations + writeback``.
        self.coh_at: List[int] = []
        self.coh_code: List[int] = []
        #: Dirty L1 victims: position and line.
        self.victim_at: List[int] = []
        self.victim_line: List[int] = []
        #: DRAM write-backs: ``3 * position + phase`` (0: the L1
        #: victim's L2 insertion evicted it, 2: the demand fill did;
        #: the demand read itself is phase 1) and the written address.
        self.wb_order: List[int] = []
        self.wb_addr: List[int] = []


#: What the directory stage reads from the L1 stage: per residual event
#: its core, write flag, L1 hit and dense line id; the residual index
#: and line id of each dirty victim; and the id -> line table.
_L1Outcome = namedtuple(
    "_L1Outcome",
    ["cores", "writes", "hit", "victim_res", "victim_id", "ids", "ranks"],
)


def _int_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _positions(values) -> np.ndarray:
    """A logged column of batch positions (or small codes), int32."""
    return np.asarray(values, dtype=np.int32)


def _per_cut(cuts, positions, weights=None) -> np.ndarray:
    """For each cut, how many ``positions`` (or their total ``weights``)
    lie below it."""
    bucket = np.searchsorted(cuts, positions, side="right")
    counts = np.bincount(bucket, weights, minlength=len(cuts) + 1)
    return np.cumsum(counts[:len(cuts)]).astype(np.int64)


def _refill(flat_sets, touched, sets, keys, dirty) -> None:
    """Clear each touched set, then refill the sets from their end
    contents (grouped by set, each in LRU order, with dirty bits)."""
    for t in np.asarray(touched).tolist():
        flat_sets[t].clear()
    if not len(sets):
        return
    cut = (np.flatnonzero(sets[1:] != sets[:-1]) + 1).tolist()
    keys = keys.tolist()
    dirty = dirty.tolist()
    for t, a, b in zip(sets[[0, *cut]].tolist(), [0, *cut],
                       [*cut, len(keys)]):
        flat_sets[t].update(zip(keys[a:b], dirty[a:b]))


class CacheSystem:
    """The shared cache path: L1s + banked L2 + directory + DRAM.

    Exposes both the scalar :meth:`access` (seed semantics, the
    reference oracle) and :meth:`replay_cache_path`, which screens the
    batch for guaranteed hits, replays the residual events through the
    L1s, the directory, the prefetcher and the L2 in a chain of
    stages, and folds every counter from the outcome log. ``fast_path_ok`` selects the kernel; it is
    ``False`` only when the system is built with ``scalar_cache=True``.

    ``memo`` (a :class:`~repro.store.ResultMemo`) lets kernel batches
    reuse the :class:`CachePathDelta` of the same batch in an earlier
    replay of the same stream (see the module docstring); the driver
    passes one only to an unsampled, unattributed replay, and calls
    :meth:`finish` after its last batch. A batch with a ``record`` or
    ``cuts`` is never looked up. A replay that hits to the end leaves
    the cache state itself untouched.
    """

    def __init__(self, config: SimConfig, stats: MemStats,
                 dram: DramModel, crossbar: Crossbar,
                 scalar_cache: bool = False, memo=None) -> None:
        ncores = config.core.num_cores
        self.config = config
        self.stats = stats
        self.dram = dram
        self.crossbar = crossbar
        self.l1s = [Cache(config.l1, f"l1.{c}") for c in range(ncores)]
        self.l2_banks = [
            Cache(config.l2_per_core, f"l2.{b}") for b in range(ncores)
        ]
        self.directory = Directory()
        self.ncores = ncores
        self.geometry = BankGeometry(
            num_banks=ncores, line_bytes=config.l1.line_bytes
        )
        self.bank_mask = self.geometry.bank_mask
        self.bank_bits = self.geometry.bank_bits
        self.line_bytes = self.geometry.line_bytes
        self.line_bits = self.geometry.line_bits
        self.l1_lat = config.l1.latency_cycles
        self.l2_lat = config.l2_per_core.latency_cycles
        self.remote_lat = config.interconnect.remote_latency_cycles
        # An OoO core's stride prefetcher hides the latency of
        # sequential line streams (edgeList scans); the fetch itself
        # (traffic, cache fills) still happens.
        self.prefetcher = StreamDetector(ncores)
        #: Whether replay_cache_path may use the batch kernel. The
        #: kernel covers every topology and page policy; only
        #: ``scalar_cache`` (the reference-oracle selector) disables it.
        self.fast_path_ok = not scalar_cache
        #: Screening counters accumulated over every kernel
        #: batch this system replays (see :class:`KernelTelemetry`).
        self.kernel_telemetry = KernelTelemetry()
        self.memo = memo
        #: The chain digest of the last kernel batch (memo runs only),
        #: whether batches are still looked up, and the batches found
        #: in the memo whose deltas are not applied yet.
        self._memo_key = None
        self._lookup = True
        self._held_batches: List[tuple] = []
        self._held_deltas: List[CachePathDelta] = []
        # Per-system constants of the batch path: every L1 and L2 set
        # in (core or bank)-major order, and the counters a delta adds.
        self._flat_l1 = [s for c in self.l1s for s in c._sets]
        self._flat_l2 = [s for b in self.l2_banks for s in b._sets]
        self._slots = self._counter_slots()
        self._hops = None
        #: The kernel's core-id width (see :func:`core_id_dtype`).
        self.core_dtype = core_id_dtype(ncores)

    # ------------------------------------------------------------------
    # Scalar oracle (reference semantics + external callers)
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, write: bool) -> float:
        """One cache-path access; returns the latency seen by the core."""
        line = addr >> self.line_bits
        stats = self.stats
        l1 = self.l1s[core]
        latency = float(self.l1_lat)
        hit, dirty_victim = l1.access_line(line, write)
        if hit:
            stats.l1_hits += 1
            if write:
                inval_mask, writeback = self.directory.on_write(line, core)
                if inval_mask:
                    latency += self._invalidate(inval_mask, line, core)
                if writeback:
                    latency += self._fetch_modified(line)
            return latency

        stats.l1_misses += 1
        # Coherence action for the fill.
        if write:
            inval_mask, writeback = self.directory.on_write(line, core)
            if inval_mask:
                latency += self._invalidate(inval_mask, line, core)
        else:
            _, writeback = self.directory.on_read(line, core)
        if writeback:
            latency += self._fetch_modified(line)
        if dirty_victim is not None:
            self._writeback_to_l2(dirty_victim, core)
            self.directory.on_eviction(dirty_victim, core)

        # L2 lookup at the line's home bank.
        bank = line & self.bank_mask
        bank_key = line >> self.bank_bits
        if bank != core:
            latency += self.crossbar.transfer_latency(core, bank)
            stats.onchip_line_bytes += (
                self.line_bytes + self.crossbar.config.header_bytes
            )
        latency += self.l2_lat
        l2hit, l2_dirty_victim = self.l2_banks[bank].access_line(bank_key, write)
        if l2hit:
            stats.l2_hits += 1
        else:
            stats.l2_misses += 1
            stats.dram_read_bytes += self.line_bytes
            latency += self.dram.access(addr)
        if l2_dirty_victim is not None:
            # A posted write-back: only its row-buffer effect matters.
            self.dram.access(self.geometry.victim_addr(l2_dirty_victim, bank))
            stats.dram_write_bytes += self.line_bytes
        # A stream prefetcher hides the fill latency of sequential line
        # runs; the traffic and cache-state changes above still stand.
        if self.prefetcher.observe(core, line):
            stats.prefetch_hits += 1
            latency = float(self.l1_lat + 1)
        return latency

    def _invalidate(self, inval_mask: int, line: int, writer: int) -> float:
        """Invalidate other cores' L1 copies; returns added latency."""
        stats = self.stats
        for c in iter_set_bits(inval_mask):
            self.l1s[c].invalidate_line(line)
            stats.onchip_word_bytes += self.crossbar.config.header_bytes
            stats.coherence_invalidations += 1
        # The writer waits one round trip for the acks, not one per copy.
        return float(self.remote_lat)

    def _fetch_modified(self, line: int) -> float:
        """Cache-to-cache transfer of a modified line."""
        self.stats.onchip_line_bytes += (
            self.line_bytes + self.crossbar.config.header_bytes
        )
        return float(self.crossbar.transfer_latency())

    def _writeback_to_l2(self, line: int, core: int) -> None:
        """Write a dirty L1 victim back to its L2 bank."""
        bank = line & self.bank_mask
        bank_key = line >> self.bank_bits
        if bank != core:
            self.stats.onchip_line_bytes += (
                self.line_bytes + self.crossbar.config.header_bytes
            )
        _, l2_dirty_victim = self.l2_banks[bank].access_line(bank_key, True)
        if l2_dirty_victim is not None:
            self.dram.access(self.geometry.victim_addr(l2_dirty_victim, bank))
            self.stats.dram_write_bytes += self.line_bytes

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def replay_cache_path(
        self,
        cores: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        banks: np.ndarray,
        writes: np.ndarray,
        atomics: np.ndarray,
        mem_lat: List[float],
        serial: List[float],
        record: "CacheRecord" = None,
        cuts=(),
    ) -> List[tuple]:
        """Replay every cache-routed event (arrays already subset-sliced).

        Per-core memory-latency and serialization sums accumulate into
        ``mem_lat``/``serial``; atomic events get the core-executed
        split (``atomic_serialization`` of the latency serializes, plus
        the fixed stall). ``record`` (a :class:`CacheRecord` sized to
        the batch) additionally captures per-event outcomes for traffic
        attribution; both paths fill it.

        ``cuts`` (non-decreasing event counts, none above the batch
        length) asks for the counters part-way through, so a windowed
        replay closes its windows from one batch: the return value
        holds one ``(increments, mem_lat, serial)`` per cut — the
        ``MemStats`` increments of the batch's first ``cut`` events (a
        dict over the fields the cache path moves) and copies of the
        per-core sums after them.
        """
        cuts = [int(c) for c in cuts]
        if len(cores) == 0:
            return [({f: 0 for f in _STAT_FIELDS}, list(mem_lat),
                     list(serial)) for _ in cuts]
        if self.fast_path_ok and len(cores) > MAX_STREAM:
            raise SimulationError(
                f"a kernel batch holds at most {MAX_STREAM} events,"
                f" got {len(cores)}")
        if not self.fast_path_ok:
            return self._replay_generic_cuts(
                np.asarray(cores).tolist(), np.asarray(addrs).tolist(),
                np.asarray(writes).tolist(), np.asarray(atomics).tolist(),
                mem_lat, serial, record, cuts,
            )
        addrs = np.asarray(addrs)
        writes = np.asarray(writes, dtype=bool)
        atomics = np.asarray(atomics, dtype=bool)
        memo = self.memo
        key = None
        if memo is not None:
            if self._memo_key is None and (any(mem_lat) or any(serial)):
                # The stored latency sums are totals from zero.
                self.memo = memo = None
            else:
                key = self._memo_key = self.memo_key(
                    cores, addrs, writes, atomics, prev=self._memo_key)
        batch = (np.asarray(cores).astype(self.core_dtype, copy=False),
                 addrs, np.asarray(lines), np.asarray(banks), writes,
                 atomics)
        if key is not None and self._lookup:
            delta = None if record is not None or cuts else memo.get(key)
            if delta is not None:
                self._held_batches.append(batch)
                self._held_deltas.append(delta)
                self.kernel_telemetry.reused += delta.events
                return []
            self._lookup = False
            for held in self._held_batches:
                self._apply(self._replay_kernel(*held, mem_lat, serial)[0],
                            mem_lat, serial)
            self._held_batches, self._held_deltas = [], []
        delta, marks = self._replay_kernel(
            *batch, mem_lat, serial, record, cuts,
        )
        self._apply(delta, mem_lat, serial)
        if key is not None:
            memo.put(key, delta)
        return marks

    def finish(self, mem_lat: List[float], serial: List[float]) -> None:
        """Apply the deltas of the batches found in the memo, in order.

        The driver calls this after a replay's last batch. When every
        batch of the replay was found, nothing was applied yet; when
        one missed, the held batches were replayed then and nothing is
        left to apply.
        """
        for delta in self._held_deltas:
            self._apply(delta, mem_lat, serial)
        self._held_batches, self._held_deltas = [], []

    def memo_key(self, cores: np.ndarray, addrs: np.ndarray,
                 writes: np.ndarray, atomics: np.ndarray,
                 prev: Optional[str] = None) -> str:
        """Chain digest of a batch that follows the batch keyed ``prev``.

        ``prev`` is the key of the batch before it in the same replay,
        or ``None`` for a replay's first batch, which is chained onto a
        digest of the cache-relevant config (L1, L2, DRAM,
        interconnect, core count, the atomic latency split, the hybrid
        policy's random ranges). The batch adds its routed
        core/addr/write/atomic columns, each as its dtype plus its raw
        bytes (no widened copy); lines, banks and bank keys derive from
        the address and the geometry. So a key covers everything the
        batch's outcome depends on: the config and every event of the
        stream up to and including the batch.
        """
        h = hashlib.sha256((prev or self._config_digest()).encode())
        for col in (cores, addrs):
            col = np.ascontiguousarray(col)
            h.update(col.dtype.str.encode())
            h.update(col)
        h.update(np.packbits(writes))
        h.update(np.packbits(atomics))
        return h.hexdigest()

    def _config_digest(self) -> str:
        """The digest a replay's first :meth:`memo_key` is chained on."""
        config = self.config
        dcfg = config.dram
        ranges = (
            tuple(self.dram._random_ranges)
            if dcfg.page_policy == "hybrid" else ()
        )
        return hashlib.sha256(repr((
            config.l1, config.l2_per_core, dcfg, config.interconnect,
            self.ncores, config.core.atomic_serialization,
            config.core.atomic_stall_cycles, ranges,
            self.prefetcher.num_heads,
        )).encode()).hexdigest()

    def _counter_slots(self) -> List[tuple]:
        """``(object, field)`` per counter a :class:`CachePathDelta`
        increments, in the delta's order."""
        return ([(self.stats, f) for f in _STAT_FIELDS]
                + [(self.dram, f) for f in _DRAM_FIELDS])

    def _apply(self, delta: CachePathDelta, mem_lat: List[float],
               serial: List[float]) -> None:
        """Add a batch's counter increments and install its end values."""
        for (obj, name), inc in zip(self._slots, delta.counters):
            if inc:
                setattr(obj, name, getattr(obj, name) + inc)
        if delta.open_rows is not None:
            self.dram._open_rows[:] = delta.open_rows
        mem_lat[:] = delta.mem_lat
        serial[:] = delta.serial
        self.kernel_telemetry.observe(delta.events, delta.screened)

    def _replay_generic_cuts(self, cores, addrs, writes, atomics, mem_lat,
                             serial, record, cuts) -> List[tuple]:
        """:meth:`_replay_generic` in pieces, with the counters at each
        cut (see :meth:`replay_cache_path`)."""
        stats = self.stats
        start = [getattr(stats, f) for f in _STAT_FIELDS]
        marks = []
        lo = 0
        for hi in [*cuts, len(cores)]:
            self._replay_generic(cores[lo:hi], addrs[lo:hi], writes[lo:hi],
                                 atomics[lo:hi], mem_lat, serial, record,
                                 offset=lo)
            if len(marks) < len(cuts):
                marks.append((
                    {f: getattr(stats, f) - v
                     for f, v in zip(_STAT_FIELDS, start)},
                    list(mem_lat), list(serial),
                ))
            lo = hi
        return marks

    def _replay_generic(self, cores, addrs, writes, atomics,
                        mem_lat, serial, record=None, offset=0) -> None:
        """Scalar oracle: per-event :meth:`access` (seed semantics).

        With ``record`` set, per-event outcomes are recovered by
        differencing the stats counters around each access — the
        oracle-side twin of the kernel's folded record columns,
        guaranteed to match the aggregate increments by construction.
        """
        stats = self.stats
        access = self.access
        core_cfg = self.config.core
        atomic_stall = core_cfg.atomic_stall_cycles
        atomic_ser = core_cfg.atomic_serialization
        line_bytes = self.line_bytes
        i = offset - 1
        for core, addr, write, atomic in zip(cores, addrs, writes, atomics):
            i += 1
            if record is not None:
                p_l1m = stats.l1_misses
                p_l2h = stats.l2_hits
                p_l2m = stats.l2_misses
                p_pref = stats.prefetch_hits
                p_dw = stats.dram_write_bytes
            latency = access(core, addr, write)
            if record is not None:
                if stats.l1_misses != p_l1m:
                    record.l1_hit[i] = False
                record.l2_hit[i] = stats.l2_hits != p_l2h
                record.l2_miss[i] = stats.l2_misses != p_l2m
                record.prefetch[i] = stats.prefetch_hits != p_pref
                record.writebacks[i] = (
                    (stats.dram_write_bytes - p_dw) // line_bytes
                )
            if atomic:
                stats.atomics_total += 1
                stats.atomics_on_cores += 1
                serial[core] += latency * atomic_ser + atomic_stall
                mem_lat[core] += latency * (1.0 - atomic_ser)
            else:
                mem_lat[core] += latency

    def _replay_kernel(self, cores, addrs, lines, banks, writes, atomics,
                       mem_lat, serial, record=None, cuts=()):
        """Screened batch kernel: screen, L1, directory, prefetcher, L2,
        fold.

        Guaranteed hits (:func:`screen_guaranteed_hits`) never enter
        the stages; their latency is the L1 latency and their effects
        are provably nil. The residual events go through the L1 sets
        (:meth:`_l1_stage`), the directory (:meth:`_directory_stage`)
        and the prefetcher (:meth:`_prefetch_stage`), each one pass
        over the whole batch; the L2 replays the L1 misses and dirty
        victims (:meth:`_l2_stage`); and :meth:`_fold` turns the
        outcome log into every counter, the per-event latencies and the
        ``record`` columns. Returns the batch's
        :class:`CachePathDelta` — the system's counters are untouched
        until the caller applies it — and the counters at each of
        ``cuts`` (see :meth:`replay_cache_path`).

        Each stage keeps only what a later stage reads, at its narrowest
        width (int32 positions, ranks, slots and keys; core ids in
        :attr:`core_dtype`), and drops it after its last reader, so a
        batch peaks at a small multiple of its own columns. ``addrs``
        and ``lines`` are read in their own dtype: no stage does int64
        arithmetic on them, and the two that mix them with wider values
        (the L2 stream with its carried lines, the DRAM rows with the
        write-back addresses) write them into int64 columns.
        """
        n = len(cores)
        tracer = get_tracer()
        with tracer.span("screen", cat="replay"):
            screened, lo, rank, uniq = _screen(cores, lines, writes,
                                               self.l1s[0]._num_sets)
            keep = np.flatnonzero(~screened).astype(np.int32)
        log = _ResidualLog()
        if len(keep):
            with tracer.span("l1", cat="replay"):
                l1 = self._l1_stage(log, keep, cores, writes, lo, rank,
                                    uniq, screened)
            del lo, rank, uniq, screened
            with tracer.span("dir", cat="replay"):
                self._directory_stage(log, keep, l1)
            del l1
            with tracer.span("prefetch", cat="replay"):
                self._prefetch_stage(log, cores, lines)
        else:
            del lo, rank, uniq, screened
        n_screened = n - len(keep)
        del keep
        with tracer.span("l2", cat="replay"):
            self._l2_stage(log, lines, writes)
        with tracer.span("fold", cat="replay"):
            counters, open_rows, lats, at_cuts = self._fold(
                log, cores, addrs, banks, record, cuts,
            )
            del log
            # Latency accounting: the atomic split and the per-core
            # sums. np.add.at accumulates element-by-element in event
            # order, so the float association matches the scalar oracle
            # exactly even when the batch is a window segment of a
            # longer replay (bincount would fold a partial sum and
            # drift by one ULP); folding it in pieces at the cuts is the
            # same sequence.
            core_cfg = self.config.core
            ser = core_cfg.atomic_serialization
            n_atomic = int(np.count_nonzero(atomics))
            ser_w = None
            if n_atomic:
                ser_w = lats * ser
                ser_w += core_cfg.atomic_stall_cycles
                ser_w[~atomics] = 0.0
                np.multiply(lats, 1.0 - ser, out=lats, where=atomics)
            mem_sums = np.asarray(mem_lat, dtype=np.float64)
            ser_sums = np.asarray(serial, dtype=np.float64)
            marks = []
            lo = 0
            for hi in [*cuts, n]:
                np.add.at(mem_sums, cores[lo:hi], lats[lo:hi])
                if ser_w is not None:
                    np.add.at(ser_sums, cores[lo:hi], ser_w[lo:hi])
                if len(marks) < len(cuts):
                    marks.append((mem_sums.tolist(), ser_sums.tolist()))
                lo = hi
        counters[_STAT_FIELDS.index("atomics_total")] = n_atomic
        counters[_STAT_FIELDS.index("atomics_on_cores")] = n_atomic
        if cuts:
            at_cuts[:, _STAT_FIELDS.index("atomics_total")] = _per_cut(
                cuts, np.flatnonzero(atomics))
            at_cuts[:, _STAT_FIELDS.index("atomics_on_cores")] = \
                at_cuts[:, _STAT_FIELDS.index("atomics_total")]
        marks = [(dict(zip(_STAT_FIELDS, row)), m, sr)
                 for row, (m, sr) in zip(at_cuts.tolist(), marks)]
        return CachePathDelta(
            events=n, screened=n_screened, counters=tuple(counters),
            open_rows=open_rows, mem_lat=mem_sums.tolist(),
            serial=ser_sums.tolist(),
        ), marks

    def _l1_stage(self, log: _ResidualLog, keep, cores, writes, lo, rank,
                  uniq, screened) -> "_L1Outcome":
        """Replay the residual events through the L1 sets in one pass.

        Each core's L1 is a function of the trace: its own accesses,
        plus the deletion of a held line whenever another core writes
        it (every holder has its bit in the directory mask). The
        deletion candidates are trace-structural: at each write, every
        other core that touched the line since the previous write
        (the previous writer included), or that held it at the batch's
        start. One stream per (core, L1 set) — the set's start contents,
        then the core's residual accesses and the deletions, in batch
        order — goes through :func:`lru_stage`, which logs the L1
        misses and the dirty victims; each touched set's end contents
        are written back.

        ``lo``, ``rank`` and ``uniq`` are the screen's line order,
        dense line ranks and distinct lines. Every line of the batch
        has a residual event (its first one), so the ranks are dense
        over the residual events too.
        """
        ncores = self.ncores
        nsets = self.l1s[0]._num_sets
        nres = len(keep)
        kc = cores[keep]
        kw = writes[keep]
        kr = rank[keep]
        # The residual events in line order (the screen's, filtered),
        # as residual indices, and their ranks.
        lr = lo[~screened[lo]]
        ridx = np.cumsum(~screened, dtype=np.int32)
        ridx -= 1
        li = ridx[lr]
        del ridx, lr
        lr_rank = kr[li]

        # Start contents, in set order and LRU order, with ranks for the
        # lines the batch does not touch.
        flat_l1 = self._flat_l1
        st_slot = np.repeat(np.arange(len(flat_l1), dtype=np.int32),
                            [len(s) for s in flat_l1])
        st_c = st_slot // nsets
        st_l = _int_array([line for s in flat_l1 for line in s])
        st_d = [d for s in flat_l1 for d in s.values()]
        at = np.minimum(np.searchsorted(uniq, st_l), len(uniq) - 1)
        known = uniq[at] == st_l
        extra = np.unique(st_l[~known])
        st_r = np.where(known, at, len(uniq) + np.searchsorted(extra, st_l)
                        ).astype(np.int32)
        ids = np.concatenate([uniq, extra])
        nst = len(st_l)
        del st_l, at, known, extra

        # Deletion candidates, in line order (start holders first): each
        # event names the next write to its line by its rank ``target``.
        so = np.argsort(st_r, kind="stable")
        ins = np.searchsorted(lr_rank, st_r[so])
        m_r = np.insert(lr_rank, ins, st_r[so])
        del lr_rank
        m_c = np.insert(kc[li], ins, st_c[so])
        m_w = np.insert(kw[li], ins, False)
        m_t = np.insert(li, ins, -1)
        del li, ins, so, st_c
        wres = np.flatnonzero(kw).astype(np.int32)
        nw = len(wres)
        wpos = np.flatnonzero(m_w)
        target = np.cumsum(m_w, dtype=np.int32)
        del m_w
        ok = target < nw
        np.minimum(target, max(nw - 1, 0), out=target)
        if nw:
            ok &= m_r[wpos][target] == m_r
        del m_r
        # Candidate matrix rows are writes in batch order.
        row = np.cumsum(kw, dtype=np.int32)[m_t[wpos]]
        row -= 1
        del m_t, wpos
        cand = np.zeros(nw * ncores, dtype=bool)
        cell = row[target[ok]].astype(np.intp)
        cell *= ncores
        cell += m_c[ok]
        cand[cell] = True
        del cell, row, target, ok, m_c
        cand[np.arange(nw) * ncores + kc[wres]] = False
        flat = np.flatnonzero(cand)
        del cand
        dres = wres[flat // ncores]
        dcore = (flat % ncores).astype(np.int32)
        del flat, wres

        # The op stream: start contents, then accesses and deletions in
        # batch order (a deletion right after its write). Line ``r``
        # maps to set ``lset[r]`` of each core's L1.
        lset = (ids % nsets).astype(np.int32)
        nd = len(dres)
        dpos = np.arange(nst + 1, nst + 1 + nd, dtype=np.int32)
        dpos += dres
        m = nst + nres + nd
        dl = np.zeros(m, dtype=bool)
        dl[dpos] = True
        dl[:nst] = True
        acc = np.flatnonzero(~dl).astype(np.int32)
        dl[:nst] = False
        slot = np.empty(m, dtype=np.int32)
        key = np.empty(m, dtype=np.int32)
        wr = np.zeros(m, dtype=bool)
        slot[:nst] = st_slot
        key[:nst] = st_r
        wr[:nst] = st_d
        del st_slot, st_r, st_d
        kslot = kc.astype(np.int32)
        kslot *= nsets
        kslot += lset[kr]
        slot[acc] = kslot
        del kslot
        key[acc] = kr
        wr[acc] = kw
        dkey = kr[dres]
        dcore *= nsets
        dcore += lset[dkey]
        slot[dpos] = dcore
        key[dpos] = dkey
        del dres, dcore, dkey, dpos, lset
        hit, victim, dirty, end = lru_stage(
            slot, key, wr, self.l1s[0]._ways, dl)
        del wr, dl

        acc_hit = hit[acc]
        del hit
        miss = np.flatnonzero(~acc_hit).astype(np.int32)
        v = victim[acc[miss]]
        del acc, victim
        dv = np.flatnonzero(v >= 0)
        dv = dv[dirty[v[dv]]]
        victim_id = key[v[dv]]
        victim_res = miss[dv]
        del v, dv
        log.l1_miss = keep[miss]
        log.victim_at = keep[victim_res]
        log.victim_line = ids[victim_id]
        del miss

        touched = np.flatnonzero(np.bincount(slot, minlength=len(flat_l1)))
        _refill(flat_l1, touched, slot[end], ids[key[end]], dirty[end])
        return _L1Outcome(kc, kw, acc_hit, victim_res, victim_id, ids, kr)

    def _directory_stage(self, log: _ResidualLog, keep,
                         l1: "_L1Outcome") -> None:
        """Replay the directory per line from the L1 outcome stream.

        The directory sees three kinds of op, in batch order: L1 read
        misses, every residual write (hit or miss), and dirty L1
        victims right after the access that evicted them. A clean
        eviction never reaches it, so a reader's bit stays (stale)
        until the next write. :func:`directory_stage` derives each
        cost ``2 * invalidations + writeback`` and each touched line's
        end entry; entries whose mask ends empty are deleted.
        """
        is_op = l1.writes | ~l1.hit
        sel = np.flatnonzero(is_op).astype(np.int32)
        ev_res = l1.victim_res
        nsel = len(sel)
        ne = len(ev_res)
        if not nsel:
            return
        # Each victim's eviction goes right after the miss that evicted
        # it: ``after`` ops of the stream precede it.
        e_at = np.cumsum(is_op, dtype=np.int32)[ev_res]
        del is_op
        e_at += np.arange(ne, dtype=np.int32)
        m = nsel + ne
        is_rw = np.ones(m, dtype=bool)
        is_rw[e_at] = False
        rw_at = np.flatnonzero(is_rw).astype(np.int32)
        del is_rw
        op_id = np.empty(m, dtype=np.int32)
        op_core = np.empty(m, dtype=l1.cores.dtype)
        kind = np.empty(m, dtype=np.int8)
        op_id[rw_at] = l1.ranks[sel]
        op_core[rw_at] = l1.cores[sel]
        kind[rw_at] = np.where(l1.writes[sel], OP_WRITE, OP_READ)
        op_id[e_at] = l1.victim_id
        op_core[e_at] = l1.cores[ev_res]
        kind[e_at] = OP_EVICT
        del e_at
        used = np.bincount(op_id, minlength=len(l1.ids))
        touched = np.flatnonzero(used)
        dense = np.cumsum(used > 0, dtype=np.int32)
        dense -= 1
        del used
        op_id = dense[op_id]
        del dense
        lines_a = l1.ids[touched]
        nl = len(lines_a)
        dir_lines = self.directory._lines
        # Only the entries stay as Python objects through the stage:
        # per-line ints would outweigh its columns on a short batch.
        got = list(map(dir_lines.get, lines_a.tolist()))
        have = [i for i, e in enumerate(got) if e is not None]
        carried = np.zeros((nl, self.ncores), dtype=bool)
        owners0 = np.full(nl, -1, dtype=self.core_dtype)
        if have:
            carried[have] = mask_bits([got[i][0] for i in have],
                                      self.ncores)
            owners0[have] = [got[i][1] for i in have]
        del have
        codes, end, owners = directory_stage(
            op_id, op_core, kind, carried, owners0)
        del op_id, op_core, kind
        code = codes[rw_at]
        del codes, rw_at
        nz = np.flatnonzero(code)
        log.coh_at = keep[sel[nz]]
        log.coh_code = code[nz]
        del code, sel, nz

        # Write back the changed entries (an entry's mask is never 0):
        # update carried ones in place, make new ones, delete emptied.
        known = carried.any(axis=1)
        live = end.any(axis=1)
        changed = (end != carried).any(axis=1) | (owners != owners0)
        for line in lines_a[known & ~live].tolist():
            del dir_lines[line]
        upd = np.flatnonzero(known & live & changed)
        for entry, mask, owner in zip([got[i] for i in upd.tolist()],
                                      bits_masks(end[upd]),
                                      owners[upd].tolist()):
            entry[0] = mask
            entry[1] = owner
        new = np.flatnonzero(~known & live)
        dir_lines.update(zip(lines_a[new].tolist(), [
            [mask, owner] for mask, owner in zip(bits_masks(end[new]),
                                                 owners[new].tolist())]))

    def _prefetch_stage(self, log: _ResidualLog, cores, lines) -> None:
        """Walk each core's L1 misses through its stream-prefetch heads
        (:func:`prefetch_walk`) and log the prefetch hits."""
        miss = log.l1_miss
        hit = prefetch_walk(self.prefetcher._heads, self.prefetcher._next,
                            cores[miss], lines[miss])
        log.prefetch = miss[hit]

    def _l2_stage(self, log: _ResidualLog, lines, writes) -> None:
        """Replay the L2 accesses of the L1 outcome through :func:`lru_stage`.

        The L2 is non-inclusive and nothing upstream reads it, so each
        (bank, set) is a plain LRU with dirty bits, fed by the logged
        stream: at each position a dirty L1 victim's write-back
        (phase 0) comes before the demand access (phase 1). Each
        touched set's contents go first, in LRU order with their dirty
        bits, so a batch continuing earlier state is exact. Logs the
        demand L2 hits and the DRAM write-backs (``3 * position`` when
        the victim's insertion evicted, ``3 * position + 2`` when the
        demand fill did), then writes each touched set's end contents
        back.
        """
        demand = np.asarray(log.l1_miss, dtype=np.int32)
        victim_at = np.asarray(log.victim_at, dtype=np.int32)
        victim_line = _int_array(log.victim_line)
        log.l1_miss, log.victim_at, log.victim_line = (
            demand, victim_at, victim_line)
        if not len(demand):
            return
        nsets = self.l2_banks[0]._num_sets
        bank_bits = self.bank_bits
        bank_mask = self.bank_mask
        flat_l2 = self._flat_l2

        def set_of(line):
            s = (line & bank_mask).astype(np.int32)
            s *= nsets
            s += (line >> bank_bits) % nsets
            return s

        # The batch's accesses in time order: a dirty victim comes just
        # before the demand access at its position (one at most).
        owner = np.searchsorted(demand, victim_at)
        dpos = np.zeros(len(demand), dtype=np.int32)
        dpos[owner] = 1
        dpos = np.cumsum(dpos, dtype=np.int32)
        dpos += np.arange(len(demand), dtype=np.int32)
        vpos = dpos[owner]
        vpos -= 1
        del owner

        # Start contents of every touched set, as leading accesses.
        real_sets = np.empty(len(demand) + len(victim_at), dtype=np.int32)
        real_sets[vpos] = set_of(victim_line)
        real_sets[dpos] = set_of(lines[demand])
        touched = np.flatnonzero(
            np.bincount(real_sets, minlength=len(flat_l2))).tolist()
        start, start_w = [], []
        for t in touched:
            bank = t // nsets
            start += [(k << bank_bits) | bank for k in flat_l2[t]]
            start_w += flat_l2[t].values()
        start = _int_array(start)
        lead = len(start)
        sets = np.concatenate([set_of(start), real_sets])
        del real_sets
        stream = np.empty(len(sets), dtype=np.int64)
        stream[:lead] = start
        stream[lead + vpos] = victim_line
        stream[lead + dpos] = lines[demand]
        stream_w = np.ones(len(sets), dtype=bool)
        stream_w[:lead] = start_w
        stream_w[lead + dpos] = writes[demand]
        del start, start_w
        hit, victim, dirty, end = lru_stage(
            sets, stream, stream_w, self.l2_banks[0]._ways)
        del stream_w

        log.l2_hit = demand[hit[lead + dpos]]
        del hit
        # A write-back at stream index ``j``: the victim slot just
        # before demand ``i``'s access (phase 0) or the access itself
        # (phase 2), where ``i`` is the first demand at or after ``j``.
        evicts = victim[lead:]
        wb = np.flatnonzero(evicts >= 0)
        wb = wb[dirty[evicts[wb]]]
        i = np.searchsorted(dpos, wb)
        log.wb_order = 3 * demand[i].astype(np.int64) + 2 * (dpos[i] == wb)
        log.wb_addr = stream[evicts[wb]] << self.line_bits
        del victim, evicts, wb, i, dpos, vpos

        _refill(flat_l2, touched, sets[end], stream[end] >> bank_bits,
                dirty[end])

    def _fold(self, log: _ResidualLog, cores, addrs, banks, record=None,
              cuts=()):
        """Derive a batch's counters, latencies and record from its log.

        Returns ``(counters, open_rows, lats, at_cuts)``: a list aligned
        with :meth:`_counter_slots` (the atomic counters are left 0 for
        the caller), DRAM's open rows after the batch (``None`` under
        the closed page policy), the per-event latency array, and the
        ``MemStats`` increments of the first ``cut`` events for each of
        ``cuts`` (one row per cut, columns in ``_STAT_FIELDS`` order,
        the atomic ones left 0).

        Every dirty L2 eviction is one DRAM write-back. DRAM's
        row-buffer machine runs here too: the demand reads and
        write-backs, ordered by position and phase, are stable-sorted by
        channel, and an access hits when the previous access on its
        channel (or the carried-in open row) has the same row.
        """
        n = len(cores)
        xcfg = self.crossbar.config
        header = xcfg.header_bytes
        lb_h = self.line_bytes + header
        line_bytes = self.line_bytes

        miss = _positions(log.l1_miss)
        l2_hit = _positions(log.l2_hit)
        pref = _positions(log.prefetch)
        mc = cores[miss]
        mb = banks[miss]
        hit_mask = np.zeros(n, dtype=bool)
        hit_mask[l2_hit] = True
        l2_miss = miss[~hit_mask[miss]]
        del hit_mask
        victim_at = _positions(log.victim_at)
        # A dirty L1 victim's write-back crosses the chip unless its
        # bank is the evicting core's own.
        victim_remote = (
            (_int_array(log.victim_line) & self.bank_mask) != cores[victim_at]
        )
        wb_order = _int_array(log.wb_order)
        wb_addr = _int_array(log.wb_addr)

        # Coherence: invalidation fan-out and modified-line fetches.
        coh_at = _positions(log.coh_at)
        coh_code = _positions(log.coh_code)
        inval = coh_code >> 1
        coh_wb = coh_code & 1
        n_inval = int(inval.sum())
        remote = mb != mc
        line_packets = (
            int(np.count_nonzero(remote)) + int(coh_wb.sum())
            + int(np.count_nonzero(victim_remote))
        )

        # Latencies, added in the oracle's order: L1, invalidation
        # round trip, modified-line fetch, bank hop, L2, DRAM; a stream
        # prefetch hit replaces the whole miss latency.
        lats = np.full(n, float(self.l1_lat))
        if len(coh_at):
            if xcfg.topology == "crossbar":
                wb_lat = self.remote_lat
            else:
                wb_lat = self.crossbar.transfer_latency()
            lats[coh_at] += (
                np.where(inval > 0, self.remote_lat, 0) + coh_wb * wb_lat
            )
        if len(miss):
            if xcfg.topology == "crossbar":
                hop = np.where(remote, self.remote_lat, 0)
            else:
                if self._hops is None:
                    ncores = self.ncores
                    self._hops = np.array([
                        [self.crossbar.transfer_latency(c, b)
                         for b in range(ncores)]
                        for c in range(ncores)
                    ])
                hop = np.where(remote, self._hops[mc, mb], 0)
            hop += self.l2_lat
            lats[miss] += hop
            del hop
        del mc, mb
        dram_lat, row_hits, row_misses, open_rows = self._dram_rows(
            l2_miss, addrs[l2_miss], wb_order, wb_addr
        )
        lats[l2_miss] += dram_lat
        lats[pref] = float(self.l1_lat + 1)

        if record is not None:
            record.l1_hit[miss] = False
            record.l2_hit[l2_hit] = True
            record.l2_miss[l2_miss] = True
            record.prefetch[pref] = True
            # An event triggers at most one write-back per phase (0:
            # its L1 victim's insertion, 2: its own fill), so each
            # phase's rows are distinct and a fancy += counts them.
            phase = wb_order % 3
            for p in (0, 2):
                record.writebacks[wb_order[phase == p] // 3] += 1

        at_cuts = np.zeros((len(cuts), len(_STAT_FIELDS)), dtype=np.int64)
        if cuts:
            col = {f: i for i, f in enumerate(_STAT_FIELDS)}
            misses = _per_cut(cuts, miss)
            at_cuts[:, col["l1_hits"]] = np.asarray(cuts) - misses
            at_cuts[:, col["l1_misses"]] = misses
            at_cuts[:, col["l2_hits"]] = _per_cut(cuts, l2_hit)
            dram_reads = _per_cut(cuts, l2_miss)
            at_cuts[:, col["l2_misses"]] = dram_reads
            at_cuts[:, col["prefetch_hits"]] = _per_cut(cuts, pref)
            packets = (_per_cut(cuts, miss[remote])
                       + _per_cut(cuts, coh_at[coh_wb == 1])
                       + _per_cut(cuts, victim_at[victim_remote]))
            at_cuts[:, col["onchip_line_bytes"]] = packets * lb_h
            invals = _per_cut(cuts, coh_at, inval)
            at_cuts[:, col["onchip_word_bytes"]] = invals * header
            at_cuts[:, col["coherence_invalidations"]] = invals
            at_cuts[:, col["dram_read_bytes"]] = dram_reads * line_bytes
            at_cuts[:, col["dram_write_bytes"]] = (
                _per_cut(cuts, wb_order // 3) * line_bytes)

        n_l2_miss = len(l2_miss)
        counters = [
            n - len(miss), len(miss), len(l2_hit), n_l2_miss,
            len(pref), line_packets * lb_h, n_inval * header, n_inval,
            n_l2_miss * line_bytes, len(wb_order) * line_bytes, 0, 0,
            row_hits, row_misses,
        ]
        return counters, open_rows, lats, at_cuts

    def _dram_rows(self, reads: np.ndarray, read_addrs: np.ndarray,
                   wb_order: np.ndarray, wb_addr: np.ndarray):
        """DRAM latency of each demand read, and the row-buffer effect.

        Returns ``(read latencies, row hits, row misses, open rows)``.
        The closed page policy charges a constant and keeps no rows
        (open rows ``None``). Under open/hybrid, reads (phase 1 of
        their position) and write-backs (phases 0 and 2) run through
        the per-channel open-row machine in that order; the hybrid
        policy serves its random ranges close-page, outside the
        machine.
        """
        dcfg = self.config.dram
        if dcfg.page_policy == "closed":
            return dcfg.latency_cycles, 0, 0, None
        open_rows = list(self.dram._open_rows)
        # Both streams are ascending in ``3 * position + phase`` and
        # never tie (a read is phase 1), so each access's place in the
        # merged order is its index plus the other stream's keys below.
        key = 3 * reads.astype(np.int64) + 1
        at_r = np.searchsorted(wb_order, key)
        at_r += np.arange(len(reads))
        at_w = np.searchsorted(key, wb_order)
        at_w += np.arange(len(wb_order))
        del key
        addr = np.empty(len(reads) + len(wb_order), dtype=np.int64)
        addr[at_r] = read_addrs
        addr[at_w] = wb_addr
        del at_w
        machine = np.ones(len(addr), dtype=bool)
        if dcfg.page_policy == "hybrid":
            for lo, hi in self.dram._random_ranges:
                machine &= ~((addr >= lo) & (addr < hi))
        idx = np.flatnonzero(machine)
        del machine
        addr = addr[idx]
        ch = ((addr // 64) % dcfg.channels).astype(np.int32)
        row = addr // dcfg.row_bytes
        del addr
        by_ch = stable_argsort(ch)
        sch = ch[by_ch]
        del ch
        srow = row[by_ch]
        del row
        first = np.ones(len(sch), dtype=bool)
        first[1:] = sch[1:] != sch[:-1]
        prev = np.empty_like(srow)
        prev[1:] = srow[:-1]
        prev[first] = np.array(open_rows, dtype=np.int64)[sch[first]]
        hit = np.empty(len(idx), dtype=bool)
        hit[by_ch] = srow == prev
        del prev, by_ch
        last = np.ones(len(sch), dtype=bool)
        last[:-1] = first[1:]
        for c, r in zip(sch[last].tolist(), srow[last].tolist()):
            open_rows[c] = r
        del sch, srow, first, last
        lat = np.full(len(reads) + len(wb_order), dcfg.latency_cycles)
        lat[idx] = np.where(hit, dcfg.row_hit_cycles, dcfg.row_miss_cycles)
        read_lat = lat[at_r]
        n_hit = int(np.count_nonzero(hit))
        return read_lat, n_hit, len(idx) - n_hit, open_rows
