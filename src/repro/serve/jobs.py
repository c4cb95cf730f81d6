"""Job model for ``repro serve``: specs, keys, coalescing, backpressure.

The server's unit of work is a :class:`JobSpec` — the full workload
description a client submits (dataset, algorithm, backend, scale,
cores, chunk size, algorithm kwargs). Specs are hashed with the same
canonical-JSON + blake2b machinery the trace store uses
(:func:`repro.store.store.normalize_kwargs`), so two requests that
would produce bit-identical manifests always collide on one key.

:class:`JobManager` owns the lifecycle:

- **warm**: a completed manifest for the key is still in the bounded
  warm cache — answered synchronously, no job created;
- **coalesced**: a job with the same key is already queued or running —
  the new request attaches to it instead of recomputing;
- **cold**: a fresh job is queued onto the worker pool;
- **rejected**: the number of live (queued + running) jobs has reached
  ``queue_depth`` — the caller maps this to HTTP 429.

Every transition is counted (:meth:`JobManager.stats`), and all shared
state is guarded by one lock; the compute itself runs outside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.registry import ALGORITHMS
from repro.errors import SimulationError
from repro.memsim.backends import backend_names
from repro.store.store import normalize_kwargs

__all__ = [
    "Job",
    "JobManager",
    "JobSpec",
    "QueueFullError",
    "job_key",
]

#: Job lifecycle states (``Job.status`` values).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class QueueFullError(SimulationError):
    """Raised by :meth:`JobManager.submit` when the queue is at depth."""


@dataclass(frozen=True)
class JobSpec:
    """One replay request, as submitted by a client."""

    dataset: str
    algorithm: str
    backend: str = "omega"
    scale: float = 1.0
    num_cores: int = 16
    chunk_size: int = 32
    alg_kwargs: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a request body, rejecting junk early."""
        if not isinstance(doc, Mapping):
            raise SimulationError("job spec must be a JSON object")
        missing = [k for k in ("dataset", "algorithm") if not doc.get(k)]
        if missing:
            raise SimulationError(
                f"job spec missing required field(s): {', '.join(missing)}"
            )
        known = {
            "dataset", "algorithm", "backend", "scale", "num_cores",
            "chunk_size", "alg_kwargs",
        }
        unknown = sorted(set(doc) - known - {"wait"})
        if unknown:
            raise SimulationError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        kwargs = doc.get("alg_kwargs") or {}
        if not isinstance(kwargs, Mapping):
            raise SimulationError("alg_kwargs must be an object")
        algorithm = str(doc["algorithm"])
        if algorithm not in ALGORITHMS:
            raise SimulationError(
                f"unknown algorithm {algorithm!r};"
                f" available: {', '.join(ALGORITHMS)}"
            )
        backend = str(doc.get("backend", "omega"))
        if backend not in backend_names():
            raise SimulationError(
                f"unknown backend {backend!r};"
                f" available: {', '.join(backend_names())}"
            )
        return cls(
            dataset=str(doc["dataset"]),
            algorithm=algorithm,
            backend=backend,
            scale=_positive_scale(doc.get("scale", 1.0)),
            num_cores=_positive_int("num_cores", doc.get("num_cores", 16)),
            chunk_size=_positive_int("chunk_size", doc.get("chunk_size", 32)),
            alg_kwargs=dict(kwargs),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "scale": self.scale,
            "num_cores": self.num_cores,
            "chunk_size": self.chunk_size,
            "alg_kwargs": dict(self.alg_kwargs),
        }


def _positive_scale(value: Any) -> float:
    """A finite, positive dataset scale (numeric strings accepted)."""
    try:
        scale = float(value)
    except (TypeError, ValueError):
        scale = math.nan
    if isinstance(value, bool) or not (math.isfinite(scale) and scale > 0):
        raise SimulationError(
            f"scale must be a finite number > 0, got {value!r}"
        )
    return scale


def _positive_int(key: str, value: Any) -> int:
    """``value`` of field ``key``, which must be a positive JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise SimulationError(
            f"{key} must be a positive integer, got {value!r}"
        )
    return value


def job_key(spec: JobSpec) -> str:
    """Content hash of a spec: identical workloads collide, by design.

    Uses the trace store's kwargs canonicalization so the key space
    matches the cache-key space one level down — a spec whose kwargs
    the store cannot canonicalize is rejected here rather than silently
    computed twice.
    """
    kwargs = normalize_kwargs(dict(spec.alg_kwargs))
    if kwargs is None:
        raise SimulationError(
            "alg_kwargs values must be JSON scalars (bool/int/float/str)"
        )
    payload = {
        "dataset": spec.dataset,
        "algorithm": spec.algorithm,
        "backend": spec.backend,
        "scale": float(spec.scale),
        "num_cores": int(spec.num_cores),
        "chunk_size": int(spec.chunk_size),
        "kwargs": kwargs,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


@dataclass
class Job:
    """One in-flight (or finished) computation for a spec key."""

    id: str
    spec: JobSpec
    key: str
    status: str = QUEUED
    manifest: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: How many requests this job answers (1 + coalesced attachments).
    clients: int = 1
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Span names emitted by the run's tracer, in completion order —
    #: the progress stream a status poll returns.
    progress: List[str] = field(default_factory=list)
    done_event: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able status view (manifest included only when done)."""
        doc: Dict[str, Any] = {
            "job_id": self.id,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "clients": self.clients,
            "progress": list(self.progress),
        }
        if self.status == DONE:
            doc["manifest"] = self.manifest
        if self.status == FAILED:
            doc["error"] = self.error
        return doc


class JobManager:
    """Coalescing, warm-serving, bounded-queue job scheduler.

    ``runner`` computes one spec: ``runner(spec, progress)`` returns the
    run-manifest dict; ``progress`` is a callable the runner may invoke
    with span names as the run advances (entries show up in status
    polls). The runner executes on a private :class:`ThreadPoolExecutor`
    thread and must build its own isolated run context — the manager
    imposes no ambient state on it.
    """

    def __init__(
        self,
        runner: Callable[[JobSpec, Callable[[str], None]], Dict[str, Any]],
        workers: int = 2,
        queue_depth: int = 8,
        warm_capacity: int = 32,
    ) -> None:
        if workers < 1:
            raise SimulationError("JobManager needs at least one worker")
        if queue_depth < 1:
            raise SimulationError("queue_depth must be >= 1")
        self._runner = runner
        self._queue_depth = queue_depth
        self._warm_capacity = warm_capacity
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._warm: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._seq = 0
        self._counters = {
            "submitted": 0,
            "warm": 0,
            "coalesced": 0,
            "computed": 0,
            "rejected": 0,
            "failed": 0,
        }

    # -- submission ----------------------------------------------------
    def submit(
        self, spec: JobSpec
    ) -> Tuple[str, Optional[Job], Optional[Dict[str, Any]]]:
        """Route one request.

        Returns ``(state, job, manifest)`` where ``state`` is ``"warm"``
        (manifest attached, no job), ``"coalesced"`` (existing job), or
        ``"cold"`` (fresh job queued). Raises :class:`QueueFullError`
        when the live-job count is at the configured depth.
        """
        key = job_key(spec)
        with self._lock:
            self._counters["submitted"] += 1
            manifest = self._warm.get(key)
            if manifest is not None:
                self._warm.move_to_end(key)
                self._counters["warm"] += 1
                return "warm", None, manifest
            job = self._inflight.get(key)
            if job is not None:
                job.clients += 1
                self._counters["coalesced"] += 1
                return "coalesced", job, None
            if len(self._inflight) >= self._queue_depth:
                self._counters["rejected"] += 1
                raise QueueFullError(
                    f"job queue full ({self._queue_depth} live jobs)"
                )
            self._seq += 1
            job = Job(id=f"{key[:12]}-{self._seq}", spec=spec, key=key)
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._counters["computed"] += 1
        self._pool.submit(self._execute, job)
        return "cold", job, None

    def _execute(self, job: Job) -> None:
        job.started = time.time()
        job.status = RUNNING
        try:
            manifest = self._runner(job.spec, job.progress.append)
        except Exception as exc:  # noqa: BLE001  # repro: noqa[EXC001] -- worker-thread boundary: any job failure becomes a FAILED status surfaced to the client
            with self._lock:
                # status last: snapshot() reads without the lock, so a
                # poll must never see FAILED before the error is set.
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                job.status = FAILED
                self._inflight.pop(job.key, None)
                self._counters["failed"] += 1
            job.done_event.set()
            return
        with self._lock:
            job.manifest = manifest
            job.status = DONE
            job.finished = time.time()
            self._inflight.pop(job.key, None)
            self._warm[job.key] = manifest
            self._warm.move_to_end(job.key)
            while len(self._warm) > self._warm_capacity:
                self._warm.popitem(last=False)
        job.done_event.set()

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job for ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job: Job, timeout: Optional[float] = None) -> bool:
        """Block until ``job`` finishes (either way); True on finish."""
        return job.done_event.wait(timeout)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot plus live-queue occupancy."""
        with self._lock:
            doc: Dict[str, Any] = dict(self._counters)
            doc["live_jobs"] = len(self._inflight)
            doc["warm_entries"] = len(self._warm)
            doc["queue_depth"] = self._queue_depth
            return doc

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (finishing running jobs when ``wait``)."""
        self._pool.shutdown(wait=wait)
