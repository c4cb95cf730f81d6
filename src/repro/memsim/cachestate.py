"""The stateful cache path: set-associative state and the batch kernel.

:class:`CacheSystem` owns everything a cache-routed event can touch —
per-core L1s, the banked L2, the MESI directory, the stream
prefetcher, DRAM row state, interconnect accounting — and replays
pre-routed event batches over it. Two execution paths produce
*bit-identical* results:

- the **scalar oracle** (:meth:`CacheSystem.access`, driven by
  :meth:`CacheSystem._replay_generic`): one event per Python
  iteration, the seed semantics. Selected by ``scalar_cache=True`` on
  :class:`CacheSystem` (threaded from the backend's ``scalar_cache``
  flag, which ``run_system`` copies from its run context).
- the **batch kernel** (:meth:`CacheSystem._replay_kernel`): a
  vectorized screening pass resolves every *guaranteed hit* in one
  numpy sweep (latency, counters, and LRU effect all known without
  touching state), and only the residual events — those that can
  conflict on a cache set, miss, or carry coherence side effects —
  serialize, in batch order, through the inlined loop.

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
serialized loop; their latency is prefilled and their hit counts fall
out of the per-core complement (events minus misses). The residual
latencies scatter back to their batch positions, so the per-core
``np.add.at`` float fold runs in batch order exactly as the oracle's.

Unlike the pre-refactor fast path, the kernel covers **every**
interconnect topology and DRAM page policy: mesh hop latencies are
precomputed per (core, bank) pair, and the open/hybrid-page row-buffer
state machine is inlined with per-event channel/row columns computed
vectorized up front.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.config import SimConfig
from repro.intsort import stable_argsort
from repro.memsim.cache import Cache
from repro.memsim.coherence import Directory
from repro.memsim.dram import DramModel
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import StreamDetector
from repro.memsim.stats import MemStats

__all__ = [
    "CacheRecord",
    "CacheSystem",
    "KernelTelemetry",
    "iter_set_bits",
    "screen_guaranteed_hits",
    "set_bit_positions",
]

class CacheRecord:
    """Per-event outcome columns of one cache batch (attribution).

    Optional observability sidecar of :meth:`CacheSystem.replay_cache_path`:
    when passed, both execution paths fill one row per event at the
    exact counter-increment sites, so column sums reproduce the batch's
    ``MemStats`` deltas bit-identically. Screened guaranteed hits never
    enter the serialized loop, which is why ``l1_hit`` *defaults* to
    True — only the miss path flips it.

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

    The scalar reference form of the sharer-bitmask walks
    (invalidation targets are the set bits of a directory mask); the
    kernel's invalidation sites use :func:`set_bit_positions` for
    multi-target masks.
    """
    pos = 0
    while mask:
        if mask & 1:
            yield pos
        mask >>= 1
        pos += 1


def set_bit_positions(mask: int) -> np.ndarray:
    """Set-bit positions of ``mask`` as an array, LSB first.

    Vectorized twin of :func:`iter_set_bits` (the oracle-path
    reference): the mask's little-endian bytes unpack to a bit plane
    and ``np.flatnonzero`` reads off the positions in one sweep. Used
    by the kernel's invalidation path when a sharer mask has multiple
    targets.
    """
    if mask <= 0:
        return np.empty(0, dtype=np.int64)
    nbytes = (mask.bit_length() + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little",
    )
    return np.flatnonzero(bits)


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
    vectorized pass and drops it from the serialized loop. Every
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
    n = len(lines)
    out = np.zeros(n, dtype=bool)
    if n < 2:
        return out
    cores = np.asarray(cores, dtype=np.int64)
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    slot = cores * num_sets + lines % num_sets
    so = stable_argsort(slot)
    lo = stable_argsort(lines)
    # Line-major pass: per-event line position and running write count.
    cw = np.cumsum(writes[lo], dtype=np.int32)
    linepos = np.empty(n, dtype=np.int32)
    linepos[lo] = np.arange(n, dtype=np.int32)
    # Slot-major pass: test each event against its slot predecessor.
    ss = slot[so]
    sl = lines[so]
    sw = writes[so]
    p = linepos[so]
    pprev = p[:-1]
    pcur = p[1:]
    base = (ss[1:] == ss[:-1]) & (sl[1:] == sl[:-1])
    ok = base & np.where(
        sw[1:],
        sw[:-1] & (pcur == pprev + 1),
        cw[pcur] == cw[pprev],
    )
    out[so[1:][ok]] = True
    return out


class KernelTelemetry:
    """Aggregate screening counters across a system's kernel batches.

    One instance lives on each :class:`CacheSystem` and accumulates
    over every kernel batch the system replays (all segments and
    windows of a run), so the totals answer "how much of this run's
    cache path was resolved without the serialized loop" — the
    manifest's ``replay.kernel`` block and the Perfetto counter track
    both read from here. The scalar oracle path never touches it:
    ``batches`` stays 0 and the replay block reports mode "scalar".
    """

    __slots__ = ("batches", "events", "screened", "serialized_events")

    def __init__(self) -> None:
        self.batches = 0
        self.events = 0
        self.screened = 0
        self.serialized_events = 0

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
        }


class CacheSystem:
    """The shared cache path: L1s + banked L2 + directory + DRAM.

    Exposes both the scalar :meth:`access` (seed semantics, the
    reference oracle) and :meth:`replay_cache_path`, which screens the
    batch for guaranteed hits and serializes only the residual events
    through a fully inlined loop. ``fast_path_ok`` selects the kernel;
    it is ``False`` only when the system is built with
    ``scalar_cache=True``.
    """

    def __init__(self, config: SimConfig, stats: MemStats,
                 dram: DramModel, crossbar: Crossbar,
                 scalar_cache: bool = False) -> None:
        ncores = config.core.num_cores
        self.config = config
        self.stats = stats
        self.dram = dram
        self.crossbar = crossbar
        self.l1s = [Cache(config.l1, f"l1.{c}") for c in range(ncores)]
        self.l2_banks = [
            Cache(config.l2_per_core, f"l2.{b}") for b in range(ncores)
        ]
        self.directory = Directory(ncores)
        self.ncores = ncores
        self.geometry = BankGeometry(
            num_banks=ncores, line_bytes=config.l1.line_bytes
        )
        # Kept as attributes for backward compatibility; all derived
        # from the shared BankGeometry helper.
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

    def _prefetched(self, core: int, line: int) -> bool:
        """Stride detection: is ``line`` the next line of a live stream?"""
        return self.prefetcher.observe(core, line)

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
            latency += self.crossbar.line_transfer(self.line_bytes, core, bank)
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
            latency += self.dram.read(self.line_bytes, addr)
        if l2_dirty_victim is not None:
            victim_addr = self.geometry.victim_addr(l2_dirty_victim, bank)
            self.dram.write(self.line_bytes, victim_addr)
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
            self.crossbar.control_message()
            stats.coherence_invalidations += 1
        # The writer waits one round trip for the acks, not one per copy.
        return float(self.remote_lat)

    def _fetch_modified(self, line: int) -> float:
        """Cache-to-cache transfer of a modified line."""
        self.stats.onchip_line_bytes += (
            self.line_bytes + self.crossbar.config.header_bytes
        )
        return float(self.crossbar.line_transfer(self.line_bytes))

    def _writeback_to_l2(self, line: int, core: int) -> None:
        """Write a dirty L1 victim back to its L2 bank."""
        bank = line & self.bank_mask
        bank_key = line >> self.bank_bits
        if bank != core:
            self.crossbar.line_transfer(self.line_bytes, core, bank)
            self.stats.onchip_line_bytes += (
                self.line_bytes + self.crossbar.config.header_bytes
            )
        _, l2_dirty_victim = self.l2_banks[bank].access_line(bank_key, True)
        if l2_dirty_victim is not None:
            victim_addr = self.geometry.victim_addr(l2_dirty_victim, bank)
            self.dram.write(self.line_bytes, victim_addr)
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
        bank_keys: np.ndarray,
        writes: np.ndarray,
        atomics: np.ndarray,
        mem_lat: List[float],
        serial: List[float],
        record: "CacheRecord" = None,
    ) -> None:
        """Replay every cache-routed event (arrays already subset-sliced).

        Per-core memory-latency and serialization sums accumulate into
        ``mem_lat``/``serial``; atomic events get the core-executed
        split (``atomic_serialization`` of the latency serializes, plus
        the fixed stall). ``record`` (a :class:`CacheRecord` sized to
        the batch) additionally captures per-event outcomes for traffic
        attribution; both paths fill it at the counter-increment sites.
        """
        if len(cores) == 0:
            return
        cores64 = np.asarray(cores, dtype=np.int64)
        if not self.fast_path_ok:
            self._replay_generic(
                cores64.tolist(),
                np.asarray(addrs, dtype=np.int64).tolist(),
                np.asarray(writes).tolist(),
                np.asarray(atomics).tolist(),
                mem_lat, serial, record,
            )
            return
        lats = self._replay_kernel(
            cores64,
            np.asarray(addrs, dtype=np.int64),
            np.asarray(lines, dtype=np.int64),
            np.asarray(banks, dtype=np.int64),
            np.asarray(bank_keys, dtype=np.int64),
            np.asarray(writes, dtype=bool),
            record,
        )
        # Latency accounting happens vectorized, after the loop: the
        # atomic split and per-core sums fold via bincount.
        core_cfg = self.config.core
        ser = core_cfg.atomic_serialization
        stall = core_cfg.atomic_stall_cycles
        atom = np.asarray(atomics, dtype=bool)
        lat = np.asarray(lats)
        n_atomic = int(np.count_nonzero(atom))
        mem = np.where(atom, lat * (1.0 - ser), lat)
        # np.add.at accumulates element-by-element in event order, so
        # the float association matches the scalar oracle exactly even
        # when the batch is a window segment of a longer replay
        # (bincount would fold a partial sum and drift by one ULP).
        mem_sums = np.asarray(mem_lat, dtype=np.float64)
        np.add.at(mem_sums, cores64, mem)
        mem_lat[:] = mem_sums.tolist()
        if n_atomic:
            self.stats.atomics_total += n_atomic
            self.stats.atomics_on_cores += n_atomic
            srl = np.where(atom, lat * ser + stall, 0.0)
            ser_sums = np.asarray(serial, dtype=np.float64)
            np.add.at(ser_sums, cores64, srl)
            serial[:] = ser_sums.tolist()

    def _replay_generic(self, cores, addrs, writes, atomics,
                        mem_lat, serial, record=None) -> None:
        """Scalar oracle: per-event :meth:`access` (seed semantics).

        With ``record`` set, per-event outcomes are recovered by
        differencing the stats counters around each access — the
        oracle-side twin of the kernel's in-loop capture, guaranteed
        to match the aggregate increments by construction.
        """
        stats = self.stats
        access = self.access
        core_cfg = self.config.core
        atomic_stall = core_cfg.atomic_stall_cycles
        atomic_ser = core_cfg.atomic_serialization
        line_bytes = self.line_bytes
        i = -1
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

    def _replay_kernel(self, cores, addrs, lines, banks, bank_keys, writes,
                       record=None):
        """Screened batch kernel: numpy for guaranteed hits, a
        serialized loop for the residual.

        Mirrors :meth:`access` operation-for-operation on the residual
        events but keeps every counter in a local and touches the
        cache/directory/prefetcher dicts directly, flushing totals back
        to the model objects once at the end. Guaranteed hits
        (:func:`screen_guaranteed_hits`) never enter the loop: their
        latency is prefilled with the L1 latency and their effects are
        provably nil — which is also why ``record`` rows default to
        "L1 hit, nothing else": only the residual miss path writes
        outcome rows, at the same sites the counters increment.
        """
        config = self.config
        ncores = self.ncores
        l1_nsets = self.l1s[0]._num_sets
        l1_ways = self.l1s[0]._ways
        l2_nsets = self.l2_banks[0]._num_sets
        l2_ways = self.l2_banks[0]._ways
        l1_sets = [c._sets for c in self.l1s]
        l2_sets = [b._sets for b in self.l2_banks]
        dir_lines = self.directory._lines
        flat_l1 = [s for c in self.l1s for s in c._sets]
        flat_l2 = [s for b in self.l2_banks for s in b._sets]
        # Prefetcher state, inlined for the L1-miss path (same lists
        # the StreamDetector mutates, so state stays coherent).
        pref = self.prefetcher
        p_heads = pref._heads
        p_next = pref._next
        num_heads = pref.num_heads

        n = len(cores)
        # The vectorized pass: the screen resolves every guaranteed
        # hit without state.
        keep = np.flatnonzero(
            ~screen_guaranteed_hits(cores, lines, writes, l1_nsets)
        )
        self.kernel_telemetry.observe(events=n, screened=n - len(keep))

        # Interconnect latencies are per-(core, bank) constants under
        # both topologies; precompute the table the miss path indexes.
        xcfg = self.crossbar.config
        if xcfg.topology == "crossbar":
            bank_lat = [[self.remote_lat] * ncores] * ncores
            wb_lat = self.remote_lat
        else:
            bank_lat = [
                [self.crossbar.transfer_latency(c, b) for b in range(ncores)]
                for c in range(ncores)
            ]
            wb_lat = self.crossbar.transfer_latency()
        # Invalidation acks cost one crossbar round trip regardless of
        # topology (matches _invalidate).
        remote_lat = self.remote_lat

        # DRAM page policy: closed is a constant; open/hybrid run the
        # per-channel row-buffer machine with vectorized per-event
        # channel/row columns (hybrid's random ranges resolved up
        # front; victim write-backs compute theirs in-loop).
        dram = self.dram
        dcfg = config.dram
        dram_lat = dcfg.latency_cycles
        if dcfg.page_policy == "closed":
            track_rows = False
            chan_l = row_l = rand_l = None
            channels = row_bytes = row_hit_cyc = row_miss_cyc = 0
            open_rows = None
            ranges = ()
        else:
            track_rows = True
            channels = dcfg.channels
            row_bytes = dcfg.row_bytes
            row_hit_cyc = dcfg.row_hit_cycles
            row_miss_cyc = dcfg.row_miss_cycles
            open_rows = list(dram._open_rows)
            # Only the hybrid policy consults the random ranges; plain
            # open-page runs the row machine for every access.
            ranges = (
                list(dram._random_ranges)
                if dcfg.page_policy == "hybrid" else []
            )
            kept_addrs = addrs[keep]
            chan_l = ((kept_addrs // 64) % channels).tolist()
            row_l = (kept_addrs // row_bytes).tolist()
            if ranges:
                rand = np.zeros(len(keep), dtype=bool)
                for lo_a, hi_a in ranges:
                    rand |= (kept_addrs >= lo_a) & (kept_addrs < hi_a)
                rand_l = rand.tolist()
            else:
                rand_l = [False] * len(keep)
        rowh = 0
        rowm = 0

        # Residual columns, in batch order; set indices are
        # state-independent, so they are computed vectorized here.
        kc = cores[keep]
        kl = lines[keep]
        kb = banks[keep]
        kk = bank_keys[keep]
        cores_l = kc.tolist()
        lines_l = kl.tolist()
        writes_l = writes[keep].tolist()
        s1i_l = (kc * l1_nsets + kl % l1_nsets).tolist()
        banks_l = kb.tolist()
        keys_l = kk.tolist()
        l2i_l = (kb * l2_nsets + kk % l2_nsets).tolist()
        keep_l = keep.tolist()

        l1_lat = float(self.l1_lat)
        pref_lat = float(self.l1_lat + 1)
        l2_lat = self.l2_lat
        line_bytes = self.line_bytes
        line_bits = self.line_bits
        header = xcfg.header_bytes
        lb_h = line_bytes + header
        bank_mask = self.bank_mask
        bank_bits = self.bank_bits

        l1h = [0] * ncores
        l1m = [0] * ncores
        l1e = [0] * ncores
        l1de = [0] * ncores
        l2h = [0] * ncores
        l2m = [0] * ncores
        l2e = [0] * ncores
        l2de = [0] * ncores
        s_l2_hits = 0
        s_l2_misses = 0
        s_pref = 0
        s_onchip_line = 0
        s_onchip_word = 0
        s_coh_inv = 0
        s_dram_rd = 0
        s_dram_wr = 0
        x_line_pkts = 0
        x_ctrl_pkts = 0
        d_inval = 0
        d_wb = 0
        dram_racc = 0
        dram_wacc = 0

        def victim_write(vaddr: int) -> None:
            """Row-state effect of a posted victim write-back."""
            nonlocal rowh, rowm
            for lo_a, hi_a in ranges:
                if lo_a <= vaddr < hi_a:
                    return
            ch = (vaddr // 64) % channels
            row = vaddr // row_bytes
            if open_rows[ch] == row:
                rowh += 1
            else:
                rowm += 1
                open_rows[ch] = row

        rec_on = record is not None
        if rec_on:
            r_l1 = record.l1_hit
            r_l2h = record.l2_hit
            r_l2m = record.l2_miss
            r_pref = record.prefetch
            r_wb = record.writebacks

        # Guaranteed hits cost exactly the L1 latency; residual
        # latencies collect in loop order and scatter back through
        # ``keep`` once at the end (appending to a list beats
        # per-event ndarray stores, and the prefilled array spares the
        # final list->array conversion the accounting fold would pay).
        lats = np.full(n, l1_lat)
        rl: List[float] = []
        rl_append = rl.append
        for core, line, write, si, bank, bank_key, l2si, ki in zip(
            cores_l, lines_l, writes_l, s1i_l, banks_l, keys_l, l2i_l, keep_l
        ):
            s = flat_l1[si]
            if line in s:
                s.move_to_end(line)
                if not write:
                    rl_append(l1_lat)
                else:
                    s[line] = True
                    me = 1 << core
                    entry = dir_lines.get(line)
                    if entry is None:
                        dir_lines[line] = [me, core]
                        rl_append(l1_lat)
                    else:
                        mask0, owner = entry
                        others = mask0 & ~me
                        wb = owner >= 0 and owner != core
                        entry[0] = me
                        entry[1] = core
                        if wb:
                            d_wb += 1
                        extra = 0
                        if others:
                            lsi = line % l1_nsets
                            # Single sharer: direct bit math. Multi-
                            # target masks go through the vectorized
                            # unpackbits/flatnonzero helper.
                            if others & (others - 1):
                                targets = set_bit_positions(others).tolist()
                            else:
                                targets = (others.bit_length() - 1,)
                            for c in targets:
                                sc = l1_sets[c][lsi]
                                if line in sc:
                                    del sc[line]
                                s_onchip_word += header
                                x_ctrl_pkts += 1
                                s_coh_inv += 1
                                d_inval += 1
                            extra = remote_lat
                        if wb:
                            s_onchip_line += lb_h
                            x_line_pkts += 1
                            extra += wb_lat
                        rl_append(l1_lat + extra)
            else:
                latency = l1_lat
                l1m[core] += 1
                if rec_on:
                    r_l1[ki] = False
                dirty_victim = -1
                if len(s) >= l1_ways:
                    victim_line, was_dirty = s.popitem(last=False)
                    l1e[core] += 1
                    if was_dirty:
                        l1de[core] += 1
                        dirty_victim = victim_line
                s[line] = write
                me = 1 << core
                entry = dir_lines.get(line)
                if write:
                    if entry is None:
                        dir_lines[line] = [me, core]
                    else:
                        mask0, owner = entry
                        others = mask0 & ~me
                        wb = owner >= 0 and owner != core
                        entry[0] = me
                        entry[1] = core
                        if wb:
                            d_wb += 1
                        if others:
                            lsi = line % l1_nsets
                            if others & (others - 1):
                                targets = set_bit_positions(others).tolist()
                            else:
                                targets = (others.bit_length() - 1,)
                            for c in targets:
                                sc = l1_sets[c][lsi]
                                if line in sc:
                                    del sc[line]
                                s_onchip_word += header
                                x_ctrl_pkts += 1
                                s_coh_inv += 1
                                d_inval += 1
                            latency += remote_lat
                        if wb:
                            s_onchip_line += lb_h
                            x_line_pkts += 1
                            latency += wb_lat
                else:
                    if entry is None:
                        dir_lines[line] = [me, -1]
                    else:
                        mask0, owner = entry
                        if owner >= 0 and owner != core:
                            d_wb += 1
                            entry[1] = -1
                            s_onchip_line += lb_h
                            x_line_pkts += 1
                            latency += wb_lat
                        entry[0] = mask0 | me

                if dirty_victim >= 0:
                    vbank = dirty_victim & bank_mask
                    vkey = dirty_victim >> bank_bits
                    if vbank != core:
                        x_line_pkts += 1
                        s_onchip_line += lb_h
                    s2 = l2_sets[vbank][vkey % l2_nsets]
                    if vkey in s2:
                        l2h[vbank] += 1
                        s2.move_to_end(vkey)
                        s2[vkey] = True
                    else:
                        l2m[vbank] += 1
                        if len(s2) >= l2_ways:
                            v2, d2 = s2.popitem(last=False)
                            l2e[vbank] += 1
                            if d2:
                                l2de[vbank] += 1
                                dram_wacc += 1
                                s_dram_wr += line_bytes
                                if rec_on:
                                    r_wb[ki] += 1
                                if track_rows:
                                    victim_write(
                                        ((v2 << bank_bits) | vbank)
                                        << line_bits
                                    )
                        s2[vkey] = True
                    entry = dir_lines.get(dirty_victim)
                    if entry is not None:
                        entry[0] &= ~me
                        if entry[1] == core:
                            entry[1] = -1
                        if entry[0] == 0:
                            del dir_lines[dirty_victim]

                if bank != core:
                    latency += bank_lat[core][bank]
                    x_line_pkts += 1
                    s_onchip_line += lb_h
                latency += l2_lat
                s2 = flat_l2[l2si]
                if bank_key in s2:
                    l2h[bank] += 1
                    s2.move_to_end(bank_key)
                    if write:
                        s2[bank_key] = True
                    s_l2_hits += 1
                    if rec_on:
                        r_l2h[ki] = True
                else:
                    l2m[bank] += 1
                    dirty2 = -1
                    if len(s2) >= l2_ways:
                        v2, d2 = s2.popitem(last=False)
                        l2e[bank] += 1
                        if d2:
                            l2de[bank] += 1
                            dirty2 = v2
                    s2[bank_key] = write
                    s_l2_misses += 1
                    s_dram_rd += line_bytes
                    dram_racc += 1
                    if rec_on:
                        r_l2m[ki] = True
                    if track_rows:
                        # Exactly one latency is appended per residual
                        # event, so len(rl) (pre-append) is this
                        # event's residual ordinal — no per-iteration
                        # counter needed on the hot paths.
                        i = len(rl)
                        if rand_l[i]:
                            latency += dram_lat
                        else:
                            ch = chan_l[i]
                            row = row_l[i]
                            if open_rows[ch] == row:
                                rowh += 1
                                latency += row_hit_cyc
                            else:
                                rowm += 1
                                open_rows[ch] = row
                                latency += row_miss_cyc
                    else:
                        latency += dram_lat
                    if dirty2 >= 0:
                        dram_wacc += 1
                        s_dram_wr += line_bytes
                        if rec_on:
                            r_wb[ki] += 1
                        if track_rows:
                            victim_write(
                                ((dirty2 << bank_bits) | bank) << line_bits
                            )
                # Stream-prefetch detection (StreamDetector.observe,
                # inlined): a line matching some head + 1 counts as
                # prefetched and advances that head; otherwise it
                # replaces a round-robin victim head.
                heads = p_heads[core]
                prev = line - 1
                if prev in heads:
                    heads[heads.index(prev)] = line
                    s_pref += 1
                    if rec_on:
                        r_pref[ki] = True
                    latency = pref_lat
                else:
                    slot = p_next[core]
                    heads[slot] = line
                    p_next[core] = (slot + 1) % num_heads
                rl_append(latency)

        # Per-core L1 hits fall out of the per-core event counts: the
        # loop only tallies misses, hits (screened or residual) are the
        # complement.
        if rl:
            lats[keep] = rl

        ev_counts = np.bincount(cores, minlength=ncores)
        for c in range(ncores):
            l1h[c] = int(ev_counts[c]) - l1m[c]
        stats = self.stats
        stats.l1_hits += sum(l1h)
        stats.l1_misses += sum(l1m)
        stats.l2_hits += s_l2_hits
        stats.l2_misses += s_l2_misses
        stats.prefetch_hits += s_pref
        stats.onchip_line_bytes += s_onchip_line
        stats.onchip_word_bytes += s_onchip_word
        stats.coherence_invalidations += s_coh_inv
        stats.dram_read_bytes += s_dram_rd
        stats.dram_write_bytes += s_dram_wr
        for c in range(ncores):
            l1 = self.l1s[c]
            l1.hits += l1h[c]
            l1.misses += l1m[c]
            l1.evictions += l1e[c]
            l1.dirty_evictions += l1de[c]
            l2 = self.l2_banks[c]
            l2.hits += l2h[c]
            l2.misses += l2m[c]
            l2.evictions += l2e[c]
            l2.dirty_evictions += l2de[c]
        self.directory.invalidations += d_inval
        self.directory.writebacks += d_wb
        xbar = self.crossbar
        xbar.line_packets += x_line_pkts
        xbar.line_bytes += x_line_pkts * lb_h
        xbar.control_packets += x_ctrl_pkts
        xbar.control_bytes += x_ctrl_pkts * header
        dram.read_accesses += dram_racc
        dram.read_bytes += s_dram_rd
        dram.write_accesses += dram_wacc
        dram.write_bytes += s_dram_wr
        if track_rows:
            dram.row_hits += rowh
            dram.row_misses += rowm
            dram._open_rows[:] = open_rows
        return lats
