"""Explicit run configuration: :class:`RunContext` and :class:`RunRequest`.

A run is described by two values, and every driver
(:func:`repro.core.system.run_system` and its siblings) takes exactly
these two:

- :class:`RunContext` is a frozen snapshot of everything a run reads
  from its surroundings (store handle, segment size, attribution flag,
  ledger path, scalar-cache flag, obs sinks). Threads can each carry
  their own context; nothing a concurrent run does can change it.
- :meth:`RunContext.from_env` and the ``*_from_env`` helpers are the
  **only** place in ``src/repro`` allowed to read ``REPRO_*``
  environment variables (machine-enforced by a token scan in
  ``tests/test_contracts.py``).
- :class:`RunRequest` is one run's workload description as a
  serializable value, so a sweep worker or a ``repro serve`` job can
  carry the complete run description across a process or socket
  boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import SimulationError
from repro.obs.ledger import ENV_LEDGER
from repro.store import TraceStore
from repro.store.store import ENV_CACHE_CAPACITY_MB, ENV_CACHE_DIR

__all__ = [
    "ENV_SEGMENT_EVENTS",
    "ENV_ATTRIBUTION",
    "ENV_SCALAR_CACHE",
    "RunContext",
    "RunRequest",
    "attribution_from_env",
    "cache_capacity_from_env",
    "ledger_path_from_env",
    "scalar_cache_from_env",
    "segment_events_from_env",
    "store_from_env",
]

#: Environment fallback for the out-of-core streaming segment size: a
#: positive integer turns on streaming for every run in the process.
ENV_SEGMENT_EVENTS = "REPRO_SEGMENT_EVENTS"

#: Environment fallback for per-class traffic attribution: a truthy
#: value ("1", "true", "on", "yes") turns it on for every run.
ENV_ATTRIBUTION = "REPRO_ATTRIBUTION"

#: Environment escape hatch forcing the scalar reference cache oracle
#: (``"1"`` forces it; anything else keeps the batch kernel).
ENV_SCALAR_CACHE = "REPRO_SCALAR_CACHE"

#: Values of :data:`ENV_ATTRIBUTION` that mean "on".
_TRUTHY = ("1", "true", "on", "yes")


def _environ(environ: Optional[Mapping[str, str]]) -> Mapping[str, str]:
    return os.environ if environ is None else environ


def cache_capacity_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """``REPRO_CACHE_CAPACITY_MB`` as bytes, or ``None`` when unset."""
    env_mb = _environ(environ).get(ENV_CACHE_CAPACITY_MB)
    if not env_mb:
        return None
    return int(float(env_mb) * 1024 * 1024)


def store_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[TraceStore]:
    """The store ``REPRO_CACHE_DIR`` names, or ``None`` (caching off).

    Its capacity is ``REPRO_CACHE_CAPACITY_MB`` from the same mapping.
    """
    root = _environ(environ).get(ENV_CACHE_DIR)
    if not root:
        return None
    return TraceStore(root, capacity_bytes=cache_capacity_from_env(environ))


def segment_events_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """``REPRO_SEGMENT_EVENTS`` as a positive int, or ``None`` (off).

    Raises :class:`~repro.errors.SimulationError` on a non-integer
    value; 0 and negative values mean off, like an explicit argument.
    """
    env = _environ(environ).get(ENV_SEGMENT_EVENTS)
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise SimulationError(
            f"{ENV_SEGMENT_EVENTS}={env!r} is not an integer"
        )
    return value if value > 0 else None


def attribution_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> bool:
    """Whether ``REPRO_ATTRIBUTION`` holds a truthy value."""
    env = _environ(environ).get(ENV_ATTRIBUTION, "").strip().lower()
    return env in _TRUTHY


def ledger_path_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """The ledger file ``REPRO_LEDGER`` names ('' and unset mean off)."""
    env = _environ(environ).get(ENV_LEDGER, "")
    return env or None


def scalar_cache_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> bool:
    """Whether ``REPRO_SCALAR_CACHE=1`` forces the scalar oracle."""
    return _environ(environ).get(ENV_SCALAR_CACHE, "") == "1"


@dataclass(frozen=True)
class RunContext:
    """Immutable snapshot of a run's ambient configuration.

    Construct one per logical run (or per worker thread) and pass it
    to ``run_system(..., context=...)``. A context is never mutated
    after construction — derive variants with :meth:`with_options` —
    so concurrent runs in one process cannot observe each other's
    configuration, which is exactly the property ``repro serve``'s
    worker threads rely on.
    """

    #: Trace store handle, or ``None`` for caching off.
    store: Optional[TraceStore] = None
    #: Out-of-core streaming segment size (``None`` = whole-trace).
    segment_events: Optional[int] = None
    #: Fold per-class traffic attribution during the replay.
    attribution: bool = False
    #: Run-ledger JSONL file to append to (``None`` = off).
    ledger_path: Optional[str] = None
    #: Force the scalar reference cache oracle instead of the batch
    #: kernel (the ``REPRO_SCALAR_CACHE`` escape hatch, made explicit).
    scalar_cache: bool = False
    #: Obs sinks: a :class:`repro.obs.SpanTracer` and a
    #: :class:`repro.obs.MetricsRegistry`. ``None`` falls back to the
    #: thread's installed sink (no-op by default).
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None

    @classmethod
    def from_env(
        cls,
        *,
        cache: Union[None, bool, str, os.PathLike, TraceStore] = None,
        segment_events: Optional[int] = None,
        attribution: Optional[bool] = None,
        attribution_path: Optional[Union[str, os.PathLike]] = None,
        ledger_path: Optional[Union[str, os.PathLike]] = None,
        scalar_cache: Optional[bool] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        environ: Optional[Mapping[str, str]] = None,
    ) -> "RunContext":
        """Build a context from explicit overrides plus the environment.

        This classmethod is the single sanctioned reader of ``REPRO_*``
        environment variables in ``src/repro``. Every parameter is an
        explicit override that wins over the environment; ``None``
        means "consult the environment":

        - ``cache``: ``False`` disables caching, a path or
          :class:`~repro.store.TraceStore` selects a store, and
          ``None``/``True`` use the store ``REPRO_CACHE_DIR`` names
          (:func:`store_from_env`). A store built here from a path or
          the environment gets ``REPRO_CACHE_CAPACITY_MB``'s capacity.
        - ``attribution_path`` implies ``attribution=True`` unless
          ``attribution`` explicitly disables it.
        - ``environ`` substitutes a mapping for ``os.environ`` (tests).
        """
        store: Optional[TraceStore]
        if cache is False:
            store = None
        elif isinstance(cache, TraceStore):
            store = cache
        elif isinstance(cache, (str, os.PathLike)):
            store = TraceStore(
                cache, capacity_bytes=cache_capacity_from_env(environ)
            )
        else:
            store = store_from_env(environ)

        if segment_events is None:
            segment_events = segment_events_from_env(environ)
        elif int(segment_events) <= 0:
            segment_events = None
        else:
            segment_events = int(segment_events)

        if attribution is None:
            want_attribution = (
                True if attribution_path is not None
                else attribution_from_env(environ)
            )
        else:
            want_attribution = bool(attribution)

        if ledger_path is None:
            resolved_ledger = ledger_path_from_env(environ)
        else:
            resolved_ledger = os.fspath(ledger_path)

        if scalar_cache is None:
            scalar_cache = scalar_cache_from_env(environ)

        return cls(
            store=store,
            segment_events=segment_events,
            attribution=want_attribution,
            ledger_path=resolved_ledger,
            scalar_cache=bool(scalar_cache),
            tracer=tracer,
            metrics=metrics,
        )

    def with_options(self, **changes: Any) -> "RunContext":
        """A copy with the given fields replaced (contexts are frozen)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Cross-process serialization (sweep workers, serve jobs)
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """JSON-able description of this context (obs sinks excluded).

        The store handle is flattened to its root path and capacity;
        :meth:`from_spec` rebuilds an equivalent context on the other
        side of a process boundary. Tracer/metrics sinks do not cross
        — the receiving side installs its own.
        """
        return {
            "cache_dir": None if self.store is None else str(self.store.root),
            "cache_capacity_bytes": (
                None if self.store is None else int(self.store.capacity_bytes)
            ),
            "segment_events": self.segment_events,
            "attribution": self.attribution,
            "ledger_path": self.ledger_path,
            "scalar_cache": self.scalar_cache,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "RunContext":
        """Rebuild a context from :meth:`to_spec` output.

        Never consults the environment: a worker that receives a spec
        runs with exactly the configuration its parent resolved.
        """
        cache_dir = spec.get("cache_dir")
        store = None
        if cache_dir:
            store = TraceStore(
                cache_dir,
                capacity_bytes=spec.get("cache_capacity_bytes"),
            )
        segment_events = spec.get("segment_events")
        return cls(
            store=store,
            segment_events=(
                int(segment_events) if segment_events else None
            ),
            attribution=bool(spec.get("attribution", False)),
            ledger_path=spec.get("ledger_path"),
            scalar_cache=bool(spec.get("scalar_cache", False)),
        )


@dataclass(frozen=True)
class RunRequest:
    """One run's workload description, as a serializable value.

    Environment-derived configuration does *not* live here — that is
    :class:`RunContext` — so a request says *what* to run and a
    context says *with which surroundings*.

    ``config`` stays a separate ``run_system`` argument (it is a rich
    object); when omitted, the driver derives it from ``backend`` and
    ``num_cores`` via
    :func:`repro.core.system.default_backend_config`.
    """

    #: Registered algorithm name (see :mod:`repro.algorithms.registry`).
    algorithm: str
    #: Registered hierarchy-backend name (see
    #: :func:`repro.memsim.backends.backend_names`).
    backend: Optional[str] = None
    #: Label recorded in the report.
    dataset: str = ""
    #: OpenMP static-schedule chunk (mirrors ``DEFAULT_CHUNK_SIZE``).
    chunk_size: Optional[int] = 32
    #: Scratchpad-mapping chunk; ``None`` matches ``chunk_size``
    #: (Section V-D). A different value reproduces the mismatch
    #: experiment.
    sp_chunk_size: Optional[int] = None
    #: Nth-element in-degree reordering before the run; ``None`` takes
    #: the backend's default (on for OMEGA and the locked cache).
    reorder: Optional[bool] = None
    #: Used only when the driver must derive a default config.
    num_cores: int = 16
    #: Output files: the run manifest (JSON), the Chrome trace of the
    #: run's phase spans, and the windowed replay timeline (JSON, or
    #: CSV for a ``.csv`` path).
    manifest_path: Optional[str] = None
    trace_path: Optional[str] = None
    timeline_path: Optional[str] = None
    #: Replay sampling window in trace events; 0 auto-sizes for about
    #: 64 windows, ``None`` samples only when ``timeline_path`` is set.
    obs_window: Optional[int] = None
    #: Standalone attribution JSON output.
    attribution_path: Optional[str] = None
    #: Extra arguments for the algorithm runner (source vertex, etc.).
    alg_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (for sweep payloads and serve job specs)."""
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "dataset": self.dataset,
            "chunk_size": self.chunk_size,
            "sp_chunk_size": self.sp_chunk_size,
            "reorder": self.reorder,
            "num_cores": self.num_cores,
            "manifest_path": self.manifest_path,
            "trace_path": self.trace_path,
            "timeline_path": self.timeline_path,
            "obs_window": self.obs_window,
            "attribution_path": self.attribution_path,
            "alg_kwargs": dict(self.alg_kwargs),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        known = {
            "algorithm", "backend", "dataset", "chunk_size",
            "sp_chunk_size", "reorder", "num_cores", "manifest_path",
            "trace_path", "timeline_path", "obs_window",
            "attribution_path", "alg_kwargs",
        }
        fields = {k: doc[k] for k in known if k in doc}
        if "algorithm" not in fields:
            raise SimulationError("RunRequest needs an 'algorithm'")
        fields["alg_kwargs"] = dict(fields.get("alg_kwargs") or {})
        return cls(**fields)
