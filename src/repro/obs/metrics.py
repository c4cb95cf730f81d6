"""Metrics primitives: counters and the registry.

The instrumentation contract mirrors the counter of production metric
libraries (prometheus_client, OpenTelemetry), kept dependency-free: a
:class:`Counter` is a monotonically increasing event tally, the one
instrument kind the simulator writes.

Counters are owned by a :class:`MetricsRegistry`. The process-wide
default registry is a :class:`NullRegistry` whose counters are one
shared no-op singleton, so instrumented code pays one dict lookup and
one no-op call when metrics are disabled — hot loops should hoist the
counter lookup out of the loop, at which point the disabled cost is a
single C-level method call per update.

Enable collection either globally (:func:`set_registry`) or for a
scope (:func:`use_registry`)::

    from repro.obs import MetricsRegistry, use_registry

    reg = MetricsRegistry()
    with use_registry(reg):
        run_system(...)
    print(reg.snapshot())
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Sequence

from repro.errors import ObsError

__all__ = [
    "Counter",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "percentile",
    "summarize",
]

#: Percentiles reported by series summaries (manifest block).
SUMMARY_PERCENTILES = (5, 25, 50, 75, 95)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (p in [0, 100]).

    Matches ``numpy.percentile``'s default method without requiring the
    input to already be a numpy array.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ObsError("percentile of an empty sequence")
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[int(rank)]
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def summarize(values: Sequence[float],
              percentiles: Iterable[int] = SUMMARY_PERCENTILES) -> Dict[str, float]:
    """Percentile + mean/min/max summary of a series (empty-safe)."""
    data = [float(v) for v in values]
    if not data:
        return {"count": 0}
    out: Dict[str, float] = {
        "count": len(data),
        "mean": sum(data) / len(data),
        "min": min(data),
        "max": max(data),
    }
    for p in percentiles:
        out[f"p{p}"] = percentile(data, p)
    return out


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObsError(f"counter {self.name} increment < 0: {amount}")
        self.value += amount


class _NullCounter:
    """The shared do-nothing counter."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


_NULL_COUNTER = _NullCounter()


class MetricsRegistry:
    """Namespace of counters, created on first use.

    Counter names are free-form dotted paths
    (``"replay.events_routed"``); asking for the same name twice
    returns the same counter.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> Dict[str, Dict]:
        """Every counter's value, as plain JSON-able data."""
        return {"counters": {
            name: self._counters[name].value for name in sorted(self._counters)
        }}


class NullRegistry(MetricsRegistry):
    """The disabled default: every counter is a shared no-op."""

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_COUNTER  # type: ignore[return-value]

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}}


#: The process-wide disabled registry (the default).
NULL_REGISTRY = NullRegistry()

# Per-thread like the tracer: concurrent runs (serve workers, the
# two-store regression test) each install their own registry without
# clobbering each other. Threads that never install one see NULL_REGISTRY.
_current = threading.local()


def get_registry() -> MetricsRegistry:
    """The registry installed in this thread (no-op by default)."""
    return getattr(_current, "registry", NULL_REGISTRY)


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` for this thread; ``None`` restores the null
    one.

    Returns the previously installed registry so callers can restore
    it (or use :func:`use_registry` for scoped installation).
    """
    previous = get_registry()
    _current.registry = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Context manager: install ``registry`` for the enclosed scope
    (thread-locally)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
