"""Persistent, content-addressed trace store.

Trace *generation* (reorder + algorithm execution over the Ligra
engine) dominates end-to-end wall-clock now that replay is
batch-vectorized, yet the trace is a pure function of

``(graph content, algorithm, algorithm kwargs, num_cores, chunk_size,
reorder key)``

and is byte-identical across every hierarchy backend that replays it.
The store caches each distinct trace exactly once under a
content-addressed key:

- the graph component is :meth:`repro.graph.csr.CSRGraph.fingerprint`
  (a memoized blake2b of the CSR arrays), so renaming a dataset or
  re-generating an identical synthetic graph still hits;
- the remaining components are folded in via a canonical JSON blob
  hashed with blake2b (:func:`trace_key`).

Each entry is two files in the store root:

- ``<key>.npz`` — a *segmented* trace archive in replay order
  (:class:`~repro.ligra.segments.SegmentedTrace`): warm hits can be
  streamed into the replay one bounded segment at a time
  (:meth:`TraceStore.open_segments`) without ever rehydrating the
  whole trace, and :meth:`TraceStore.load` still materializes it
  in-core for whole-trace replay;
- ``<key>.json`` — a sidecar with the downstream metadata
  :func:`repro.core.system.run_system` needs to skip generation
  entirely (vtxProp address ranges, bytes-per-vertex, event count,
  graph shape) plus format versions for compatibility checks.

Cold streaming runs spool their trace to disk while it is generated
(:class:`~repro.ligra.segments.SpoolingTraceBuilder`) and hand the
finished archive to :meth:`TraceStore.adopt`, which moves it into
place without a read-back.

Entries are evicted LRU by file mtime when the store grows past its
size cap. Writes are atomic (temp file + ``os.replace``) so concurrent
sweep workers can share one store: the worst case under a race is
duplicated generation work, never a torn entry. Corrupted or
version-mismatched entries are discarded and treated as misses, so the
cache can only ever cost a regeneration, not correctness.

Next to the files, each store handle keeps one in-memory
:class:`ResultMemo`, :attr:`TraceStore.cache_path_memo`: the cache
path's counter deltas, one per segment, keyed by a digest chained over
the cache configuration and the routed stream up to that segment, so
every run sharing the handle replays each distinct cache-path stream
once. It is never written to disk, so it
lives exactly as long as the handle and is not shared across
processes.

Controls: a run's store comes from its
:class:`~repro.core.context.RunContext`;
:meth:`~repro.core.context.RunContext.from_env` builds it from the
``REPRO_CACHE_DIR`` and ``REPRO_CACHE_CAPACITY_MB`` environment
variables, and the CLI adds ``--cache-dir`` / ``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.ligra.segments import DEFAULT_SEGMENT_EVENTS, SegmentedTrace
from repro.ligra.trace import TRACE_FORMAT_VERSION, Trace
from repro.obs import get_registry

__all__ = [
    "SIDECAR_VERSION",
    "DEFAULT_CAPACITY_BYTES",
    "ResultMemo",
    "StoreEntry",
    "TraceStore",
    "trace_key",
    "normalize_kwargs",
]

_LOG = logging.getLogger("repro.store")

#: Sidecar metadata format version; bumped whenever the metadata the
#: replay stage consumes changes shape.
SIDECAR_VERSION = 1

#: Default store size cap (bytes). The scaled stand-in traces are a
#: few MB each, so this holds hundreds of distinct workloads.
DEFAULT_CAPACITY_BYTES = 512 * 1024 * 1024

#: Environment variables naming the store ``RunContext.from_env`` builds.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_CAPACITY_MB = "REPRO_CACHE_CAPACITY_MB"

#: Orphaned ``.*.tmp*`` files (left by a writer killed mid
#: ``_atomic_write``) older than this are garbage-collected during
#: :meth:`TraceStore.evict`. Young temp files are left alone — they
#: may belong to a live concurrent writer.
ORPHAN_TMP_AGE_SECONDS = 3600.0

#: Entries a store handle's cache-path memo keeps, one per segment of
#: a stream. One entry is a few KB of counters (not per-event data); a
#: 25-cell, five-backend sweep of Table II cells has 20 distinct
#: cache-path streams of 1-3 segments each.
CACHE_PATH_MEMO_ENTRIES = 1024


def normalize_kwargs(kwargs: Dict) -> Optional[Dict]:
    """Canonicalize algorithm kwargs for hashing.

    Returns a JSON-able dict, or ``None`` when a value cannot be
    canonicalized — the caller then bypasses the cache for that run
    instead of risking a false hit.
    """
    out: Dict = {}
    for name in sorted(kwargs):
        value = kwargs[name]
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        elif isinstance(value, (np.bool_,)):
            value = bool(value)
        if value is None or isinstance(value, (bool, int, float, str)):
            out[name] = value
        else:
            return None
    return out


def trace_key(
    graph,
    algorithm: str,
    num_cores: int,
    chunk_size: Optional[int],
    reorder: Optional[str],
    alg_kwargs: Optional[Dict] = None,
) -> Optional[str]:
    """Content-addressed cache key for one trace-generation run.

    ``reorder`` is the reorder recipe applied before generation
    (``"in"`` for the default nth-element in-degree pass, ``None`` for
    the original ordering). Returns ``None`` when the kwargs cannot be
    canonicalized (caching is then skipped for the run).
    """
    kwargs = normalize_kwargs(alg_kwargs or {})
    if kwargs is None:
        return None
    payload = {
        "trace_format": TRACE_FORMAT_VERSION,
        "sidecar": SIDECAR_VERSION,
        "graph": graph.fingerprint(),
        "algorithm": str(algorithm),
        "num_cores": int(num_cores),
        "chunk_size": None if chunk_size is None else int(chunk_size),
        "reorder": reorder,
        "kwargs": kwargs,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


class ResultMemo:
    """A count-bounded, lock-guarded, in-memory LRU map.

    Values are shared, not copied: callers store plain data they never
    mutate afterwards. ``hits``/``misses`` count :meth:`get` outcomes.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise TraceError(f"memo capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Any:
        """The value stored under ``key`` (now most recent), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value``; past capacity, drop the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class StoreEntry:
    """One cached trace: its key, on-disk size, and last-use time."""

    key: str
    nbytes: int
    mtime: float


class TraceStore:
    """A size-capped, LRU-evicted directory of cached traces.

    The on-disk store is stateless between calls (all bookkeeping
    lives in the filesystem), so any number of processes — e.g. the
    workers of ``repro sweep`` — can share one root directory. The one
    piece of in-memory state is :attr:`cache_path_memo`, private to
    this handle.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        if capacity_bytes is None:
            capacity_bytes = DEFAULT_CAPACITY_BYTES
        if capacity_bytes <= 0:
            raise TraceError(
                f"trace-store capacity must be > 0, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        #: Cache-path results of the runs sharing this handle (see
        #: :meth:`repro.memsim.cachestate.CacheSystem.replay_cache_path`).
        self.cache_path_memo = ResultMemo(CACHE_PATH_MEMO_ENTRIES)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def trace_path(self, key: str) -> Path:
        """On-disk path of the segmented trace archive for ``key``."""
        return self.root / f"{key}.npz"

    def meta_path(self, key: str) -> Path:
        """On-disk path of the JSON sidecar for ``key``."""
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[Tuple[Trace, Dict]]:
        """Fetch ``(trace, metadata)`` for ``key``, or ``None`` on miss.

        Any defect — missing files, truncated archive, damaged segment
        member, version mismatch, malformed sidecar — discards the
        entry and reports a miss, so callers always fall back to
        regeneration.
        """
        return self._read(key, materialize=True)

    def open_segments(self, key: str) -> Optional[Tuple[SegmentedTrace, Dict]]:
        """Fetch ``(segments, metadata)`` for ``key``, or ``None`` on miss.

        The warm-hit streaming path: the returned
        :class:`~repro.ligra.segments.SegmentedTrace` reads one
        bounded segment at a time straight from the archive — the
        whole trace is never resident. Validation and
        corruption-discard semantics match :meth:`load`, except that
        segment members are only read (and checked) as the caller
        streams them; the caller owns closing the handle (it is a
        context manager).
        """
        return self._read(key, materialize=False)

    def _read(self, key: str,
              materialize: bool) -> Optional[Tuple[Any, Dict]]:
        """The one entry reader behind :meth:`load` and :meth:`open_segments`.

        Materializing happens inside the guarded block, so a segment
        member damaged in place is a miss that discards the entry.
        """
        counters = get_registry()
        meta_path = self.meta_path(key)
        trace_path = self.trace_path(key)
        try:
            meta = self._read_sidecar(meta_path)
            segments = SegmentedTrace.open(trace_path)
            try:
                if segments.num_events != int(meta.get("num_events", -1)):
                    raise TraceError(
                        f"event count {segments.num_events} does not match"
                        f" sidecar {meta.get('num_events')!r}"
                    )
                found = segments.materialize() if materialize else segments
            except BaseException:
                segments.close()
                raise
            if materialize:
                segments.close()
        except FileNotFoundError:
            counters.counter("trace_store.misses").inc()
            return None
        except (
            TraceError, OSError, ValueError, KeyError, zipfile.BadZipFile,
        ) as exc:
            _LOG.warning(
                "trace store: discarding unusable entry %s (%s)", key, exc
            )
            counters.counter("trace_store.corrupt").inc()
            counters.counter("trace_store.misses").inc()
            self.discard(key)
            return None
        self._touch(trace_path, meta_path)
        counters.counter("trace_store.hits").inc()
        return found, meta

    def store(self, key: str, trace: Trace, meta: Dict,
              segment_events: Optional[int] = None) -> None:
        """Insert (or overwrite) one entry atomically, then evict LRU.

        The archive is written segmented, in the trace's (replay)
        order (``segment_events`` per segment, default
        :data:`~repro.ligra.segments.DEFAULT_SEGMENT_EVENTS`) so a
        later warm hit can stream it without rehydration.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc.setdefault("sidecar_version", SIDECAR_VERSION)
        doc.setdefault("trace_format_version", TRACE_FORMAT_VERSION)
        doc.setdefault("num_events", trace.num_events)
        doc.setdefault("key", key)
        step = int(segment_events) if segment_events else DEFAULT_SEGMENT_EVENTS
        # Trace first, sidecar second: the sidecar's presence marks the
        # entry complete, so a reader never sees a half-written pair.
        self._atomic_write(
            self.trace_path(key),
            lambda path: SegmentedTrace.from_trace(trace, step).save(path),
        )
        self._atomic_write(
            self.meta_path(key),
            lambda path: Path(path).write_text(
                json.dumps(doc, indent=2, sort_keys=True)
            ),
        )
        get_registry().counter("trace_store.stores").inc()
        self.evict()

    def adopt(self, key: str, archive_path: Union[str, os.PathLike],
              meta: Dict) -> None:
        """Move a spooled segmented archive into the store (no copy).

        The cold streaming path: a
        :class:`~repro.ligra.segments.SpoolingTraceBuilder` already
        wrote the lockstep-ordered archive to ``archive_path``; renaming it
        into place makes it this key's entry without the trace ever
        being resident. ``meta`` must carry ``num_events`` (readers
        validate against it).
        """
        if "num_events" not in meta:
            raise TraceError("adopt() needs meta['num_events']")
        self.root.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc.setdefault("sidecar_version", SIDECAR_VERSION)
        doc.setdefault("trace_format_version", TRACE_FORMAT_VERSION)
        doc.setdefault("key", key)
        trace_path = self.trace_path(key)
        src = os.fspath(archive_path)
        try:
            os.replace(src, trace_path)
        except OSError:
            # Spool directory on another filesystem: fall back to a
            # copy-and-delete move.
            shutil.move(src, trace_path)
        self._atomic_write(
            self.meta_path(key),
            lambda path: Path(path).write_text(
                json.dumps(doc, indent=2, sort_keys=True)
            ),
        )
        get_registry().counter("trace_store.stores").inc()
        self.evict()

    def discard(self, key: str) -> None:
        """Remove one entry (both files), tolerating races."""
        for path in (self.meta_path(key), self.trace_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Size accounting / eviction
    # ------------------------------------------------------------------
    def entries(self) -> List[StoreEntry]:
        """All complete entries, oldest (least recently used) first."""
        found: List[StoreEntry] = []
        try:
            sidecars = sorted(self.root.glob("*.json"))
        except OSError:
            return found
        for meta_path in sidecars:
            if meta_path.name.startswith("."):
                continue  # in-flight temp file from _atomic_write
            key = meta_path.stem
            trace_path = self.trace_path(key)
            try:
                stat_t = trace_path.stat()
                stat_m = meta_path.stat()
            except OSError:
                continue
            found.append(
                StoreEntry(
                    key=key,
                    nbytes=stat_t.st_size + stat_m.st_size,
                    mtime=max(stat_t.st_mtime, stat_m.st_mtime),
                )
            )
        found.sort(key=lambda e: (e.mtime, e.key))
        return found

    def total_bytes(self) -> int:
        """Total on-disk size of all complete entries."""
        return sum(e.nbytes for e in self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    def evict(self) -> int:
        """Drop least-recently-used entries until under capacity.

        Also garbage-collects temp files orphaned by writers killed
        mid-write (older than :data:`ORPHAN_TMP_AGE_SECONDS`).
        Returns the number of entries evicted.
        """
        self._collect_orphans()
        entries = self.entries()
        total = sum(e.nbytes for e in entries)
        evicted = 0
        for entry in entries:
            if total <= self.capacity_bytes:
                break
            self.discard(entry.key)
            total -= entry.nbytes
            evicted += 1
        if evicted:
            _LOG.info(
                "trace store: evicted %d LRU entries (%d bytes kept)",
                evicted, total,
            )
            get_registry().counter("trace_store.evictions").inc(evicted)
        return evicted

    def clear(self) -> None:
        """Remove every entry."""
        for entry in self.entries():
            self.discard(entry.key)

    def _collect_orphans(self) -> int:
        """Delete aged ``.*.tmp*`` leftovers from interrupted writes.

        A crash (or kill) between ``mkstemp`` and ``os.replace`` in
        :meth:`_atomic_write` strands a dot-prefixed temp file that
        :meth:`entries` never counts — without collection the store
        would leak capacity invisibly. Files younger than the age gate
        are spared: they may belong to a writer that is still running.
        """
        removed = 0
        now = time.time()
        try:
            candidates = list(self.root.glob(".*.tmp*"))
        except OSError:
            return 0
        for path in candidates:
            try:
                if now - path.stat().st_mtime < ORPHAN_TMP_AGE_SECONDS:
                    continue
                path.unlink()
                removed += 1
            except OSError:
                continue
        if removed:
            _LOG.info(
                "trace store: collected %d orphaned temp file(s)", removed
            )
            get_registry().counter("trace_store.orphans_collected").inc(
                removed
            )
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _read_sidecar(meta_path: Path) -> Dict:
        """Parse and version-check one sidecar, raising on any defect."""
        with open(meta_path) as f:
            meta = json.load(f)
        if not isinstance(meta, dict):
            raise TraceError(f"{meta_path} is not a sidecar object")
        if meta.get("sidecar_version") != SIDECAR_VERSION:
            raise TraceError(
                f"sidecar version {meta.get('sidecar_version')!r}"
                f" != {SIDECAR_VERSION}"
            )
        if meta.get("trace_format_version") != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"trace format {meta.get('trace_format_version')!r}"
                f" != {TRACE_FORMAT_VERSION}"
            )
        return meta

    @staticmethod
    def _touch(*paths: Path) -> None:
        for path in paths:
            try:
                os.utime(path)
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: Path, writer) -> None:
        # Dot-prefixed ".tmp" names are what entries() skips and
        # _collect_orphans() collects.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem}.", suffix=f".tmp{path.suffix}"
        )
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceStore(root={str(self.root)!r},"
            f" capacity_bytes={self.capacity_bytes})"
        )
