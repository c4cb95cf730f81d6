"""Memory-trace model: events, address space, and the trace buffer.

The trace-driven simulator (``repro.memsim``) replays streams of memory
accesses produced by the Ligra engine. Each event records which core
issued it, the virtual address and size, which of the paper's three
data-structure classes it belongs to (``vtxProp``, ``edgeList``,
``nGraphData`` — Section II "Graph data structures"), whether it is a
write and/or an atomic RMW, whether it is a *source-vertex* read
(eligible for OMEGA's source vertex buffer, Section V-C), and the
vertex id it refers to (for scratchpad partitioning).

Events are stored column-wise in numpy arrays and appended in
vectorized batches, never one Python object per access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.intsort import fit_int32

__all__ = [
    "AccessClass",
    "Region",
    "AddressSpace",
    "Trace",
    "TraceBuilder",
    "FLAG_WRITE",
    "FLAG_ATOMIC",
    "FLAG_SRC_READ",
    "FLAG_UPDATE",
    "WORD_BYTES",
    "CACHE_LINE_BYTES",
    "TRACE_FORMAT_VERSION",
    "EVENT_COLUMNS",
    "span_lockstep_positions",
]

#: On-disk trace-archive format version. Version 4 is the *segmented*
#: archive layout (a ``segment_bounds`` index plus per-segment column
#: blobs, events in replay order — see :mod:`repro.ligra.segments`)
#: with each segment's ``addr`` and ``vertex`` only as wide as their
#: range, the only layout this build writes or reads. Version 3 was
#: the same layout with those columns always int64; versions 1 and 2
#: were monolithic ``.npz`` archives. They are rejected, as is any
#: other version.
TRACE_FORMAT_VERSION = 4

#: Per-event columns, in archive order, with their narrowest dtypes.
#: ``addr`` and ``vertex`` are int32 whenever every value fits and
#: int64 otherwise (:func:`~repro.intsort.fit_int32`), batch by batch in
#: :class:`TraceBuilder` and segment by segment in an archive.
EVENT_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("core", np.int16),
    ("addr", np.int32),
    ("size", np.int16),
    ("access_class", np.int8),
    ("flags", np.int8),
    ("vertex", np.int32),
)

#: Machine word size (the paper's max vtxProp entry is 8 bytes).
WORD_BYTES = 8
#: Cache line / block size used throughout the paper's setup (Table III).
CACHE_LINE_BYTES = 64

FLAG_WRITE = 1
FLAG_ATOMIC = 2
FLAG_SRC_READ = 4
#: The event is an algorithm update-function application on the
#: destination vertex (offloadable to a PISC even when not atomic —
#: GraphMat-style owner-writes frameworks).
FLAG_UPDATE = 8


class AccessClass(enum.IntEnum):
    """The paper's three-way data-structure classification."""

    VTXPROP = 0
    EDGELIST = 1
    NGRAPH = 2


@dataclass(frozen=True)
class Region:
    """A named contiguous address range belonging to one access class."""

    name: str
    base: int
    size: int
    access_class: AccessClass

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this region."""
        return self.base <= addr < self.end


class AddressSpace:
    """Simple bump allocator handing out page-aligned virtual regions.

    Mirrors how the graph framework lays its arrays out in memory; the
    scratchpad controller's *address monitoring registers* (Section
    V-A) are configured from the vtxProp regions allocated here.
    """

    PAGE = 4096

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._regions: List[Region] = []

    def allocate(self, name: str, size: int, access_class: AccessClass) -> Region:
        """Reserve ``size`` bytes for ``name`` and return the region."""
        if size < 0:
            raise TraceError(f"region size must be >= 0, got {size}")
        base = self._next
        span = max(size, 1)
        self._next = base + ((span + self.PAGE - 1) // self.PAGE) * self.PAGE
        region = Region(name=name, base=base, size=size, access_class=access_class)
        self._regions.append(region)
        return region

    @property
    def regions(self) -> Sequence[Region]:
        """All allocated regions, in allocation order."""
        return tuple(self._regions)

    def classify(self, addr: int) -> AccessClass:
        """Class of the region containing ``addr`` (NGRAPH if unmapped)."""
        for region in self._regions:
            if region.contains(addr):
                return region.access_class
        return AccessClass.NGRAPH


def span_lockstep_positions(core: np.ndarray) -> np.ndarray:
    """Where each event of one barrier span goes in lockstep order.

    Lockstep order puts event ``r`` of every core before event
    ``r+1`` of any core, lower core ids first within a rank, and keeps
    per-core order. So event ``r`` of core ``c`` lands at
    ``offset[r]`` — the span's events of every rank below ``r`` —
    plus the number of lower cores that still have a rank-``r``
    event. The ranks come by counting along the runs of equal core
    ids in ``core``: a run's first rank is the length of that core's
    earlier runs. No event is sorted; only the runs are grouped by
    core. Returns ``pos`` (int32: a span is far below 2**31 events)
    with ``out[pos[i]] = event i``.
    :class:`TraceBuilder` scatters every barrier span this way as the
    span closes.
    """
    m = len(core)
    if m > np.iinfo(np.int32).max:
        raise TraceError(f"a barrier span holds at most 2**31 - 1 events,"
                         f" got {m}")
    if m == 0:
        return np.zeros(0, dtype=np.int32)
    run_starts = np.flatnonzero(np.r_[True, core[1:] != core[:-1]])
    run_lens = np.diff(np.r_[run_starts, m])
    by_core = np.argsort(core[run_starts], kind="stable")
    # In (core, rank) order, a run's first event follows every event
    # of the lower cores and of its core's earlier runs.
    sorted_lens = run_lens[by_core]
    before = np.cumsum(sorted_lens) - sorted_lens
    sorted_cores = core[run_starts][by_core]
    core_firsts = np.flatnonzero(
        np.r_[True, sorted_cores[1:] != sorted_cores[:-1]])
    per_core = np.diff(np.r_[before[core_firsts], m])
    longest = int(per_core.max())
    # alive[r]: cores with more than r events. place[r] starts at
    # offset[r] and steps past each core that takes a rank-r place,
    # lower core ids first.
    alive = len(per_core) - np.cumsum(
        np.bincount(per_core, minlength=longest + 1)[:longest])
    place = np.r_[0, np.cumsum(alive)[:-1]].astype(np.int32)
    # Destinations in (core, rank) order.
    table = np.empty(m, dtype=np.int32)
    first = 0
    for count in per_core.tolist():
        table[first:first + count] = place[:count]
        place[:count] += 1
        first += count
    # Event i of a run sits at its run's (core, rank) start plus its
    # offset in the run: a run of +1 steps from each run's start.
    shift = np.empty(len(run_starts), dtype=np.intp)
    shift[by_core] = before
    index = np.ones(m, dtype=np.intp)
    index[run_starts] = shift
    index[run_starts[1:]] -= shift[:-1] + run_lens[:-1] - 1
    np.cumsum(index, out=index)
    return table[index]


@dataclass
class Trace:
    """A finalized column-wise memory trace.

    The event order is the replay order: every replay walks the
    events exactly as they stand. :class:`TraceBuilder` hands out
    traces in lockstep order; a trace built by hand replays in the
    order it is given.

    Attributes
    ----------
    core:
        Issuing core id per event.
    addr:
        Virtual byte address per event (int32 when the range allows,
        see :data:`EVENT_COLUMNS`).
    size:
        Access size in bytes.
    access_class:
        :class:`AccessClass` value per event.
    flags:
        Bitwise OR of ``FLAG_WRITE``, ``FLAG_ATOMIC``, ``FLAG_SRC_READ``.
    vertex:
        Vertex id for vtxProp events, -1 otherwise (int32 when the
        range allows).
    """

    core: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    access_class: np.ndarray
    flags: np.ndarray
    vertex: np.ndarray
    #: Event indices at algorithm-iteration boundaries (source-buffer
    #: invalidation points — Section V-C).
    barriers: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: Address-space layout the trace was generated against (one
    #: :class:`Region` per allocated array), when known. Carried
    #: through :meth:`save`/:meth:`load` so standalone archives are
    #: self-describing.
    regions: Tuple[Region, ...] = ()

    def __len__(self) -> int:
        return len(self.addr)

    def __eq__(self, other) -> bool:
        """Equal events, barriers and regions (columns compared by value,
        not dtype)."""
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            all(np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("core", "addr", "size", "access_class",
                             "flags", "vertex", "barriers"))
            and tuple(self.regions) == tuple(other.regions)
        )

    @property
    def num_events(self) -> int:
        """Total number of memory events."""
        return len(self.addr)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the event columns, in bytes."""
        return int(
            self.core.nbytes
            + self.addr.nbytes
            + self.size.nbytes
            + self.access_class.nbytes
            + self.flags.nbytes
            + self.vertex.nbytes
            + self.barriers.nbytes
        )

    def count(
        self,
        access_class: Optional[AccessClass] = None,
        atomic: Optional[bool] = None,
        write: Optional[bool] = None,
    ) -> int:
        """Count events matching the given filters."""
        mask = np.ones(len(self.addr), dtype=bool)
        if access_class is not None:
            mask &= self.access_class == int(access_class)
        if atomic is not None:
            mask &= ((self.flags & FLAG_ATOMIC) != 0) == atomic
        if write is not None:
            mask &= ((self.flags & FLAG_WRITE) != 0) == write
        return int(mask.sum())

    def vtxprop_vertex_ids(self) -> np.ndarray:
        """Vertex ids of all vtxProp events (the Fig 4b / Fig 5 input)."""
        mask = self.access_class == int(AccessClass.VTXPROP)
        return self.vertex[mask]

    def slice(self, lo: int, hi: int) -> "Trace":
        """Events ``[lo, hi)`` as a trace of column views.

        Barriers are rebased to the slice, keeping those with
        ``lo <= b < hi``, so the slices of consecutive cuts see each
        barrier exactly once — the rule that lets a replay cut a trace
        anywhere (segments, windows) without moving a source-buffer
        invalidation.
        """
        b = np.asarray(self.barriers, dtype=np.int64)
        return Trace(
            core=self.core[lo:hi],
            addr=self.addr[lo:hi],
            size=self.size[lo:hi],
            access_class=self.access_class[lo:hi],
            flags=self.flags[lo:hi],
            vertex=self.vertex[lo:hi],
            barriers=b[(b >= lo) & (b < hi)] - lo,
            regions=self.regions,
        )

    def save(self, path) -> None:
        """Persist the trace as a segmented archive (format v4).

        The archive holds the events in this trace's order, plus
        :data:`TRACE_FORMAT_VERSION` and the address-space region table
        (when :attr:`regions` is set), so a loader can validate
        compatibility and recover the memory layout without the
        generating engine. See :mod:`repro.ligra.segments` for the
        layout.
        """
        from repro.ligra.segments import SegmentedTrace

        SegmentedTrace.from_trace(self).save(path)

    @classmethod
    def load(cls, path) -> "Trace":
        """Load an archive written by :meth:`save` or the trace store.

        Returns the saved events in the saved order, with barriers
        sorted, de-duplicated and kept within ``[0, num_events]`` — so
        ``load`` after ``save`` gives back any trace
        :class:`TraceBuilder` built, column for column (``addr`` and
        ``vertex`` come back int32 when their values fit). Use
        ``SegmentedTrace.open`` to stream the archive one segment at a
        time instead. Raises :class:`~repro.errors.TraceError` when
        the archive is not a segmented v4 trace archive (a monolithic
        ``.npz`` included) or its index is malformed.
        """
        from repro.ligra.segments import SegmentedTrace

        with SegmentedTrace.open(path) as segtrace:
            return segtrace.materialize()


def _as_full(x: Union[int, np.ndarray], n: int, dtype=None) -> np.ndarray:
    """``x`` as an ``n``-event column of ``dtype``; without a ``dtype``,
    only as wide as its range (:func:`fit_int32`)."""
    if np.isscalar(x):
        return np.full(n, x, dtype=dtype or fit_int32([x]).dtype)
    arr = fit_int32(x) if dtype is None else np.asarray(x, dtype=dtype)
    if len(arr) != n:
        raise TraceError(f"batch column length {len(arr)} != {n}")
    return arr


@dataclass
class TraceBuilder:
    """Accumulates event batches and finalizes them into a :class:`Trace`.

    The builder is where the lockstep model of concurrent cores lives.
    The engine appends each core's work in contiguous blocks, but on
    real hardware the cores run concurrently and their accesses to
    shared hub lines contend. So each barrier span, when it closes
    (:meth:`mark_barrier`, :meth:`build`), is scattered into lockstep
    order at :func:`span_lockstep_positions` — event ``i`` of every
    core before event ``i+1`` of any — and its raw batches are
    dropped. That order exposes the coherence ping-pong of
    core-executed atomics on the baseline CMP; per-core order is kept,
    so per-core state (L1s, stream detectors, buffers) is unaffected.
    Subclasses choose where a closed span goes (:meth:`_put_span`).

    ``enabled=False`` turns the builder into a cheap no-op so
    algorithms can run functionally without paying trace costs.
    """

    enabled: bool = True
    #: Raw batches of the open barrier span.
    _chunks: List[Dict[str, np.ndarray]] = field(default_factory=list)
    #: Closed spans, each already in lockstep order.
    _spans: List[Dict[str, np.ndarray]] = field(default_factory=list)
    _barriers: List[int] = field(default_factory=list)
    #: Events in closed spans.
    _flushed: int = 0

    def append(
        self,
        core: Union[int, np.ndarray],
        addr: np.ndarray,
        size: Union[int, np.ndarray],
        access_class: AccessClass,
        write: bool = False,
        atomic: bool = False,
        src_read: bool = False,
        update: bool = False,
        vertex: Union[int, np.ndarray] = -1,
    ) -> None:
        """Append a homogeneous batch of events (vectorized).

        ``addr`` and ``vertex`` are kept int32 when the batch's values
        fit, int64 otherwise (:func:`fit_int32`).
        """
        if not self.enabled:
            return
        addr = fit_int32(addr)
        n = len(addr)
        if n == 0:
            return
        flags = (
            (FLAG_WRITE if write else 0)
            | (FLAG_ATOMIC if atomic else 0)
            | (FLAG_SRC_READ if src_read else 0)
            | (FLAG_UPDATE if update else 0)
        )
        self._chunks.append(
            {
                "core": _as_full(core, n, np.int16),
                "addr": addr,
                "size": _as_full(size, n, np.int16),
                "access_class": np.full(n, int(access_class), dtype=np.int8),
                "flags": np.full(n, flags, dtype=np.int8),
                "vertex": _as_full(vertex, n),
            }
        )

    @property
    def num_events(self) -> int:
        """Number of events appended so far."""
        return self._flushed + sum(len(c["addr"]) for c in self._chunks)

    def mark_barrier(self) -> None:
        """Record an iteration boundary at the current event position."""
        if self.enabled:
            self._barriers.append(self.num_events)
            self._flush_span()

    def _flush_span(self) -> None:
        """Close the open span: scatter its batches into lockstep order.

        One column at a time: each raw column is dropped as soon as it
        is scattered, so the span and its raw batches together never
        hold much more than one copy of the events. A column is as wide
        as its widest batch, so no value is cast down.
        """
        if not self._chunks:
            return
        chunks, self._chunks = self._chunks, []
        # One intp copy of the positions serves all six scatters (an
        # int32 index would be widened again for each).
        pos = span_lockstep_positions(
            np.concatenate([c["core"] for c in chunks])).astype(np.intp)
        span = {}
        for name in list(chunks[0]):
            col = span[name] = np.empty(len(pos), dtype=np.result_type(
                *{chunk[name].dtype for chunk in chunks}))
            lo = 0
            for chunk in chunks:
                raw = chunk.pop(name)
                col[pos[lo:lo + len(raw)]] = raw
                lo += len(raw)
        del chunks, pos
        self._flushed += len(span["addr"])
        self._put_span(span)

    def _put_span(self, cols: Dict[str, np.ndarray]) -> None:
        """Keep one closed span (in lockstep order) until :meth:`build`."""
        self._spans.append(cols)

    def build(self) -> Trace:
        """Finalize into a single columnar :class:`Trace`, in lockstep order.

        One column at a time, each as wide as its widest span: the
        column is filled span by span and each span's column is dropped
        once copied, so the build holds the trace plus one column.
        Afterwards the builder holds no event column and starts over
        empty, so the returned trace is the only copy.
        """
        self._flush_span()
        spans, self._spans = self._spans, []
        barriers = np.asarray(sorted(set(self._barriers)), dtype=np.int64)
        self._barriers = []
        n, self._flushed = self._flushed, 0
        cols = {}
        for name, dtype in EVENT_COLUMNS:
            if spans:
                dtype = np.result_type(*{s[name].dtype for s in spans})
            col = cols[name] = np.empty(n, dtype=dtype)
            lo = 0
            for span in spans:
                part = span.pop(name)
                col[lo:lo + len(part)] = part
                lo += len(part)
        return Trace(**cols, barriers=barriers)
