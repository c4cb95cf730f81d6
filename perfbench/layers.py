"""Per-layer tracing from outside the program.

Every layer is measured by wrapping the public functions its caller
looks up — ``repro.core.system.run_algorithm``, not only
``repro.algorithms.registry.run_algorithm`` — so the program itself is
never edited. Spans nest strictly (the program is single-threaded on
these paths), so a stack is enough to record, with each span, the time
its wrapped children took; its self time is its duration minus that.
Spans are kept in memory and written out once, at the end.

Wrapping is reversible: :func:`install` wraps every entry point and
:meth:`Recorder.uninstall` puts every original attribute back. While
``recorder.active`` is false the wrappers call straight through, so the
untraced passes of a traced run pay one attribute check per call.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """In-memory span recorder; each span carries its children's time."""

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        #: (name, phase, start, end, child seconds) per closed span.
        self.spans: List[Tuple[str, str, float, float, float]] = []
        #: phase -> counter -> value.
        self.counts: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[float]] = []  # [start, child seconds]
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------
    def begin(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def end(self, name: str) -> None:
        end = time.perf_counter()
        start, children = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((name, self.phase, start, end, children))

    def count(self, name: str, value: float) -> None:
        table = self.counts.setdefault(self.phase, {})
        table[name] = table.get(name, 0) + value

    def span(self, name: str):
        """Context manager form, for spans opened by the benchmark."""
        return _Span(self, name)

    # -- wrapping ------------------------------------------------------
    def wrap(self, target: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` as ``name``.

        ``after(recorder, result, args, kwargs)`` runs outside the
        span, to count work the call did. A target that no longer
        exists is recorded in :attr:`missing` and skipped.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, _wrapper(self, original, name, after))

    def wrap_methods(self, base: str, method: str, name: str) -> None:
        """Wrap ``method`` on ``base`` and every subclass defining it."""
        module_name, _, cls_name = base.partition(":")
        try:
            root = getattr(importlib.import_module(module_name), cls_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{base}.{method}")
            return
        classes, todo = [], [root]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            if method in cls.__dict__:
                self.wrap(f"{cls.__module__}:{cls.__qualname__}.{method}",
                          name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        if self._recorder.active:
            self._recorder.begin()

    def __exit__(self, *exc) -> None:
        if self._recorder.active:
            self._recorder.end(self._name)


def _wrapper(recorder: Recorder, original, name: str,
             after: Optional[Callable]):
    def wrapped(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        recorder.begin()
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(name)
        if after is not None:
            after(recorder, result, args, kwargs)
        return result

    wrapped.__wrapped__ = original
    return wrapped


# -- counters taken at the wrapped calls --------------------------------
def _count_cache_events(rec, result, args, kwargs) -> None:
    # replay_cache_path(self, cores, ...): one event per core entry.
    cores = args[1] if len(args) > 1 else kwargs["cores"]
    rec.count("memsim.cache_events", len(cores))


def _count_trace_events(rec, result, args, kwargs) -> None:
    rec.count("ligra.events", int(result.num_events))


def _count_lookup(rec, result, args, kwargs) -> None:
    rec.count("store.lookups", 1)
    rec.count("store.hits", 0 if result is None else 1)


def _count_written(rec, result, args, kwargs) -> None:
    store = args[0]
    key = args[1] if len(args) > 1 else kwargs["key"]
    for path in (store.trace_path(key), store.meta_path(key)):
        try:
            rec.count("store.bytes_written", path.stat().st_size)
        except OSError:
            pass


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark measures."""
    w = recorder.wrap
    w("repro.memsim.cachestate:CacheSystem.replay_cache_path",
      "memsim.cache_path", _count_cache_events)
    w("repro.memsim.replay:precompute", "memsim.prepass")
    recorder.wrap_methods("repro.memsim.backends.base:HierarchyBackend",
                          "route", "memsim.route")
    recorder.wrap_methods("repro.memsim.backends.base:HierarchyBackend",
                          "account", "memsim.account")
    w("repro.core.system:compute_timing", "memsim.timing_energy")
    w("repro.memsim.energy:EnergyModel.breakdown", "memsim.timing_energy")
    w("repro.core.system:estimate_replay", "memsim.estimate")
    w("repro.core.system:run_algorithm", "ligra.generate")
    w("repro.ligra.framework:LigraEngine.build_trace", "ligra.generate",
      _count_trace_events)
    w("repro.ligra.segments:SpoolingTraceBuilder.finalize",
      "ligra.generate", _count_trace_events)
    w("repro.core.system:reorder_nth_element", "graph.reorder")
    w("repro.store.store:TraceStore.store", "store.store", _count_written)
    w("repro.store.store:TraceStore.adopt", "store.adopt", _count_written)
    w("repro.store.store:TraceStore.load", "store.load", _count_lookup)
    w("repro.store.store:TraceStore.open_segments", "store.open_segments",
      _count_lookup)
    # Streamed replay reads each stored segment through the handle
    # open_segments (or adopt, on a cold run) left open.
    w("repro.ligra.segments:SegmentedTrace.segment", "store.open_segments")
    for method in ("classify", "fold_routes", "fold_cache", "verify"):
        w(f"repro.obs.attribution:AttributionAccumulator.{method}",
          "obs.attribution")
    if recorder.missing:
        print("perfbench: not traced (entry point gone): "
              + ", ".join(recorder.missing), file=sys.stderr)
    return recorder
