"""Segmented trace archives: streaming writes, bounded-memory reads.

Format version 4 is the one trace archive layout: the event columns
are split into fixed-size segments, each stored as its own
uncompressed ``.npy`` member of a zip archive, next to a small index
(``segment_bounds``, ``barriers``, the region table, and an
``interleaved`` marker that is always 1). Each segment's ``addr`` and
``vertex`` members are int32 when the segment's values fit and int64
otherwise, so an archive's bytes depend on its values alone, however
it was written. Because the members are
plain ``.npy`` blobs in a plain zip, ``np.load`` can still open the
archive and read the index, while :class:`SegmentedTrace` streams one
segment at a time — resident memory is bounded by one segment, not
the trace.

Three producers/consumers live here:

- :class:`SegmentWriter` — incremental archive writer. Accepts column
  batches of any size, cuts segments at exact ``segment_events``
  multiples, and writes each completed segment immediately, so a
  trace larger than RAM can be spooled to disk as it is generated.
- :class:`SegmentedTrace` — the read side. Backed either by an open
  archive (lazy: segments are read on demand) or by an in-core
  :class:`Trace` (for tests and for segmenting an already-materialized
  trace).
- :class:`SpoolingTraceBuilder` — a :class:`TraceBuilder` that sends
  each closed barrier span (already in lockstep order) to a
  :class:`SegmentWriter` instead of keeping it in memory.

An archive holds its events in replay order, which for a generated
trace is the lockstep order :class:`TraceBuilder` gives each barrier
span as it closes. The in-core and the spooling builder share that
one span flush, so a spooled archive holds exactly the events
``TraceBuilder.build()`` returns, and replaying its segments
back-to-back is bit-identical to replaying the in-core trace.
"""

from __future__ import annotations

import io
import zipfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib import format as npformat

from repro.errors import TraceError
from repro.intsort import fit_int32
from repro.ligra.trace import (
    EVENT_COLUMNS,
    TRACE_FORMAT_VERSION,
    AccessClass,
    Region,
    Trace,
    TraceBuilder,
)

__all__ = [
    "DEFAULT_SEGMENT_EVENTS",
    "EVENT_COLUMNS",
    "SegmentWriter",
    "SegmentedTrace",
    "SpoolingTraceBuilder",
]

#: Default segment granularity (events). 2^18 events is ~3.5 MiB of
#: columns at 14 B per event (int32 ``addr`` and ``vertex``) — small
#: enough to bound RSS, large enough to keep the vectorized replay
#: stages efficient.
DEFAULT_SEGMENT_EVENTS = 262144

_COLUMN_NAMES = tuple(name for name, _ in EVENT_COLUMNS)
#: Columns only as wide as their range (:func:`fit_int32`); the others
#: always have their :data:`EVENT_COLUMNS` dtype.
_RANGED = frozenset({"addr", "vertex"})

#: Index members every archive carries (the region table is optional).
_INDEX_MEMBERS = frozenset({
    "format_version.npy", "interleaved.npy", "segment_bounds.npy",
    "barriers.npy",
})


def _segment_member(index: int, column: str) -> str:
    return f"seg{index:05d}.{column}.npy"


def _write_member(zf: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """Write one ``.npy`` member with a fixed (epoch) timestamp.

    ``ZipInfo``'s default date is the zip epoch, so archives are
    byte-deterministic for identical inputs (``zf.write`` would stamp
    the local mtime instead).
    """
    info = zipfile.ZipInfo(name)
    array = np.asarray(array)
    if array.ndim:
        # ascontiguousarray would promote 0-d scalars to 1-d.
        array = np.ascontiguousarray(array)
    with zf.open(info, "w", force_zip64=True) as fp:
        npformat.write_array(fp, array, allow_pickle=False)


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    return npformat.read_array(io.BytesIO(zf.read(name)),
                               allow_pickle=False)


def _member_dtype(zf: zipfile.ZipFile, name: str) -> np.dtype:
    """The dtype in a ``.npy`` member's header, without its data."""
    with zf.open(name) as fp:
        major, _ = npformat.read_magic(fp)
        read = (npformat.read_array_header_1_0 if major == 1
                else npformat.read_array_header_2_0)
        return read(fp)[2]


class SegmentWriter:
    """Incremental segmented-archive writer with bounded buffering.

    Column batches of arbitrary size go in via :meth:`append`; full
    segments of exactly ``segment_events`` events are written to the
    archive as soon as they fill, so at most one segment (plus the
    current input batch) is ever resident. :meth:`close` flushes the
    final partial segment and writes the index members. Events are
    stored in the order they are appended, the replay order; the index
    carries the ``interleaved = 1`` marker the format requires. Each
    segment's ``addr`` and ``vertex`` are written int32 when their
    values fit, int64 otherwise, whatever width they arrive in.
    """

    def __init__(self, path,
                 segment_events: int = DEFAULT_SEGMENT_EVENTS) -> None:
        if segment_events <= 0:
            raise TraceError(
                f"segment_events must be > 0, got {segment_events}"
            )
        self.path = path
        self.segment_events = int(segment_events)
        self._zf: Optional[zipfile.ZipFile] = zipfile.ZipFile(
            path, "w", compression=zipfile.ZIP_STORED, allowZip64=True
        )
        self._pending: List[Dict[str, np.ndarray]] = []
        self._pending_n = 0
        self._counts: List[int] = []

    @property
    def num_events(self) -> int:
        """Events accepted so far (written + buffered)."""
        return sum(self._counts) + self._pending_n

    def append(self, columns: Dict[str, np.ndarray]) -> None:
        """Buffer one batch; write out every segment it completes."""
        if self._zf is None:
            raise TraceError("SegmentWriter is closed")
        n = len(columns["addr"])
        if n == 0:
            return
        batch = {
            name: np.asarray(columns[name],
                             dtype=None if name in _RANGED else dtype)
            for name, dtype in EVENT_COLUMNS
        }
        for name in _COLUMN_NAMES:
            if len(batch[name]) != n:
                raise TraceError(
                    f"column {name!r} length {len(batch[name])} != {n}"
                )
        self._pending.append(batch)
        self._pending_n += n
        if self._pending_n >= self.segment_events:
            self._drain(final=False)

    def _drain(self, final: bool) -> None:
        """Write every full segment the pending batches hold (and, when
        ``final``, the partial tail).

        A segment inside one batch is written from a view of it; only a
        segment that straddles batches is concatenated, from its own
        pieces. The remainder is copied, so the drained batches can be
        freed.
        """
        if self._pending_n == 0:
            return
        pending = self._pending
        n = self._pending_n
        self._pending = []
        self._pending_n = 0
        step = self.segment_events
        batch = 0
        at = 0
        lo = 0
        while n - lo >= step or (final and lo < n):
            size = min(step, n - lo)
            pieces = []
            need = size
            while need:
                b = pending[batch]
                take = min(need, len(b["addr"]) - at)
                pieces.append((b, at, at + take))
                at += take
                need -= take
                if at == len(b["addr"]):
                    pending[batch] = None
                    batch += 1
                    at = 0
            if len(pieces) == 1:
                b, x, y = pieces[0]
                cols = {name: b[name][x:y] for name in _COLUMN_NAMES}
            else:
                cols = {name: np.concatenate([b[name][x:y]
                                              for b, x, y in pieces])
                        for name in _COLUMN_NAMES}
            del pieces
            self._write_segment(cols)
            del cols
            lo += size
        if lo < n:
            rest = pending[batch:]
            if at:
                rest[0] = {name: rest[0][name][at:].copy()
                           for name in _COLUMN_NAMES}
            self._pending = rest
            self._pending_n = n - lo

    def _write_segment(self, cols: Dict[str, np.ndarray]) -> None:
        index = len(self._counts)
        for name in _COLUMN_NAMES:
            col = fit_int32(cols[name]) if name in _RANGED else cols[name]
            _write_member(self._zf, _segment_member(index, name), col)
        self._counts.append(len(cols["addr"]))

    def close(self, barriers: Sequence[int] = (),
              regions: Tuple[Region, ...] = ()) -> None:
        """Flush the tail segment and write the archive index."""
        if self._zf is None:
            return
        self._drain(final=True)
        zf = self._zf
        bounds = np.zeros(len(self._counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._counts, dtype=np.int64), out=bounds[1:])
        total = int(bounds[-1])
        barrier_arr = np.asarray(
            sorted({int(b) for b in barriers if 0 <= b <= total}),
            dtype=np.int64,
        )
        _write_member(zf, "format_version.npy",
                      np.asarray(np.int64(TRACE_FORMAT_VERSION)))
        _write_member(zf, "interleaved.npy", np.asarray(np.int64(1)))
        _write_member(zf, "segment_bounds.npy", bounds)
        _write_member(zf, "barriers.npy", barrier_arr)
        if regions:
            _write_member(zf, "region_name.npy", np.array(
                [r.name for r in regions], dtype=np.str_))
            _write_member(zf, "region_base.npy", np.array(
                [r.base for r in regions], dtype=np.int64))
            _write_member(zf, "region_size.npy", np.array(
                [r.size for r in regions], dtype=np.int64))
            _write_member(zf, "region_class.npy", np.array(
                [int(r.access_class) for r in regions], dtype=np.int8))
        self._zf = None
        zf.close()

    def abort(self) -> None:
        """Close the underlying file without finalizing the index."""
        if self._zf is not None:
            zf = self._zf
            self._zf = None
            zf.close()


class SegmentedTrace:
    """A trace exposed as an ordered sequence of segment traces.

    Backed either by an open v4 archive (:meth:`open` — segments are
    read on demand) or by an in-core :class:`Trace`
    (:meth:`from_trace`). Either way the events keep their order.
    Each segment comes out as a self-contained :class:`Trace` whose
    barriers are rebased to the segment and whose ``regions`` are the
    full table, so every replay stage (pre-pass, routing,
    source-buffer barriers) works unchanged on a segment.
    """

    def __init__(self, *, bounds: np.ndarray, barriers: np.ndarray,
                 regions: Tuple[Region, ...],
                 trace: Optional[Trace] = None,
                 zf: Optional[zipfile.ZipFile] = None) -> None:
        self.segment_bounds = np.asarray(bounds, dtype=np.int64)
        self.barriers = np.asarray(barriers, dtype=np.int64)
        self.regions = regions
        self._trace = trace
        self._zf = zf
        #: column -> its members' dtypes, in segment order (read from
        #: the member headers on first use).
        self._dtypes: Dict[str, List[np.dtype]] = {}

    # -- constructors --------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace,
                   segment_events: int = DEFAULT_SEGMENT_EVENTS,
                   ) -> "SegmentedTrace":
        """Segment an in-core trace, keeping its event order."""
        if segment_events <= 0:
            raise TraceError(
                f"segment_events must be > 0, got {segment_events}"
            )
        n = trace.num_events
        bounds = np.arange(0, n, segment_events, dtype=np.int64)
        bounds = np.append(bounds, n)
        return cls(
            bounds=bounds, barriers=np.asarray(trace.barriers,
                                               dtype=np.int64),
            regions=trace.regions, trace=trace,
        )

    @classmethod
    def open(cls, path) -> "SegmentedTrace":
        """Open a v4 segmented archive for streaming reads.

        Each segment is read into a fresh buffer that is dropped when
        iteration moves on — that is what keeps peak RSS bounded.
        Archives are input from outside the program, so the index is
        checked here: the required members must be present, the
        version current, the ``interleaved`` marker 1, ``segment_bounds``
        must start at 0 and never decrease, and ``barriers`` must
        never decrease. Any defect raises
        :class:`~repro.errors.TraceError`.
        """
        zf = zipfile.ZipFile(path, "r")
        try:
            names = set(zf.namelist())
            missing = sorted(_INDEX_MEMBERS - names)
            if missing:
                raise TraceError(
                    f"{path} is not a trace archive in the segmented"
                    f" layout; missing {missing}"
                )
            version = int(_read_member(zf, "format_version.npy"))
            if version != TRACE_FORMAT_VERSION:
                raise TraceError(
                    f"{path} has trace format version {version};"
                    f" this build reads version {TRACE_FORMAT_VERSION}"
                )
            interleaved = int(_read_member(zf, "interleaved.npy"))
            if interleaved != 1:
                raise TraceError(
                    f"{path} is not in lockstep order"
                    f" (interleaved = {interleaved})"
                )
            bounds = _read_member(zf, "segment_bounds.npy")
            if (bounds.ndim != 1 or len(bounds) == 0 or bounds[0] != 0
                    or np.any(np.diff(bounds) < 0)):
                raise TraceError(
                    f"{path} stores malformed segment_bounds; they must"
                    " start at 0 and never decrease"
                )
            barriers = _read_member(zf, "barriers.npy")
            if np.any(np.diff(barriers) < 0):
                raise TraceError(
                    f"{path} stores decreasing barriers"
                    f" {barriers.tolist()}"
                )
            regions: Tuple[Region, ...] = ()
            if "region_base.npy" in names:
                regions = tuple(
                    Region(
                        name=str(name), base=int(base), size=int(size),
                        access_class=AccessClass(int(klass)),
                    )
                    for name, base, size, klass in zip(
                        _read_member(zf, "region_name.npy"),
                        _read_member(zf, "region_base.npy"),
                        _read_member(zf, "region_size.npy"),
                        _read_member(zf, "region_class.npy"),
                    )
                )
        except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: close the archive on any failure, then propagate it unchanged
            zf.close()
            raise
        return cls(bounds=bounds, barriers=barriers, regions=regions, zf=zf)

    # -- geometry ------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self.segment_bounds) - 1

    @property
    def num_events(self) -> int:
        return int(self.segment_bounds[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the stored event columns plus the barriers.

        Each segment counts at its own widths, so this equals
        :attr:`Trace.nbytes` of the trace whenever every segment has
        the same widths.
        """
        if self._trace is not None:
            return self._trace.nbytes
        sizes = np.diff(self.segment_bounds)
        return int(sum(
            int(sizes @ [d.itemsize for d in self._column_dtypes(name)])
            for name in _COLUMN_NAMES) + self.barriers.nbytes)

    def __len__(self) -> int:
        return self.num_events

    # -- reads ---------------------------------------------------------
    def _column_dtypes(self, name: str) -> List[np.dtype]:
        """Each archive segment member's dtype for column ``name``."""
        if self._zf is None:
            raise TraceError("SegmentedTrace is closed")
        if name not in self._dtypes:
            self._dtypes[name] = [
                _member_dtype(self._zf, _segment_member(index, name))
                for index in range(self.num_segments)]
        return self._dtypes[name]

    def _segment_column(self, index: int, name: str) -> np.ndarray:
        lo = int(self.segment_bounds[index])
        hi = int(self.segment_bounds[index + 1])
        if self._trace is not None:
            return getattr(self._trace, name)[lo:hi]
        if self._zf is None:
            raise TraceError("SegmentedTrace is closed")
        member = _segment_member(index, name)
        col = _read_member(self._zf, member)
        if col.ndim != 1 or len(col) != hi - lo:
            raise TraceError(
                f"archive member {member} holds shape {col.shape};"
                f" segment_bounds promise {hi - lo} events"
            )
        return col

    def _segment_columns(self, index: int) -> Dict[str, np.ndarray]:
        return {name: self._segment_column(index, name)
                for name in _COLUMN_NAMES}

    def segment(self, index: int) -> Trace:
        """Segment ``index`` as a standalone :class:`Trace`.

        The segment is :meth:`Trace.slice` of the stream, so barriers
        are rebased by the one cut rule (a global barrier ``b`` lands
        in the segment with ``lo <= b < hi``) and the source-buffer
        invalidation walk sees each barrier exactly once across the
        whole sequence.
        """
        if not 0 <= index < self.num_segments:
            raise TraceError(
                f"segment index {index} out of range"
                f" [0, {self.num_segments})"
            )
        lo = int(self.segment_bounds[index])
        hi = int(self.segment_bounds[index + 1])
        seg = Trace(**self._segment_columns(index),
                    barriers=self.barriers - lo, regions=self.regions)
        return seg.slice(0, hi - lo)

    def materialize(self) -> Trace:
        """Read every segment into one in-core :class:`Trace`.

        One column at a time, each as wide as its widest segment: the
        column is filled segment by segment and each segment's column
        is dropped once copied, so the read holds the trace plus one
        segment column.
        """
        if self._trace is not None:
            return self._trace
        cols = {}
        for name, dtype in EVENT_COLUMNS:
            dtypes = self._column_dtypes(name)
            if dtypes:
                dtype = np.result_type(*set(dtypes))
            col = cols[name] = np.empty(self.num_events, dtype=dtype)
            for index in range(self.num_segments):
                lo = int(self.segment_bounds[index])
                hi = int(self.segment_bounds[index + 1])
                col[lo:hi] = self._segment_column(index, name)
        return Trace(**cols, barriers=self.barriers.copy(),
                     regions=self.regions)

    # -- writes --------------------------------------------------------
    def save(self, path) -> None:
        """Write a v4 archive with this trace's exact segmentation."""
        step = max(
            int(np.diff(self.segment_bounds).max()) if self.num_segments
            else 1, 1,
        )
        writer = SegmentWriter(path, segment_events=step)
        try:
            for index in range(self.num_segments):
                writer.append(self._segment_columns(index))
            writer.close(barriers=self.barriers.tolist(),
                         regions=self.regions)
        except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: abort the partial spool on any failure, then propagate it unchanged
            writer.abort()
            raise

    def close(self) -> None:
        """Release the underlying archive handle (idempotent)."""
        if self._zf is not None:
            zf = self._zf
            self._zf = None
            zf.close()

    def __enter__(self) -> "SegmentedTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SpoolingTraceBuilder(TraceBuilder):
    """A trace builder that spools to a segmented archive as it runs.

    Each closed barrier span — put into lockstep order by the
    :class:`TraceBuilder` span flush, like an in-core build — goes to
    a :class:`SegmentWriter`, so resident memory is bounded by the
    largest span plus one segment, never the whole trace.
    :meth:`finalize` closes the archive and returns the spooled
    :class:`SegmentedTrace`; :meth:`build` is unavailable (it would
    defeat the point by materializing).
    """

    def __init__(self, path,
                 segment_events: int = DEFAULT_SEGMENT_EVENTS) -> None:
        super().__init__(enabled=True)
        self._writer = SegmentWriter(path, segment_events=segment_events)

    def _put_span(self, cols: Dict[str, np.ndarray]) -> None:
        self._writer.append(cols)

    def build(self) -> Trace:
        """Unavailable: the trace is on disk; call :meth:`finalize`."""
        raise TraceError(
            "SpoolingTraceBuilder spools to disk; call finalize() for"
            " the SegmentedTrace instead of build()"
        )

    def finalize(self, regions: Tuple[Region, ...] = ()) -> SegmentedTrace:
        """Flush the tail span, close the archive, and open the result."""
        self._flush_span()
        self._writer.close(barriers=self._barriers, regions=regions)
        return SegmentedTrace.open(self._writer.path)

    def abort(self) -> None:
        """Drop the spool without finalizing (cleanup on error)."""
        self._writer.abort()
