"""Full-system drivers: run an algorithm on a graph through a hierarchy.

This is the library's main entry point. :func:`run_system` executes one
(algorithm, graph, configuration, backend) tuple end-to-end:

1. optionally reorder the graph by popularity (OMEGA's offline
   preprocessing, Section VI — nth-element in-degree by default),
2. run the algorithm over the Ligra engine, collecting the memory
   trace — or fetch the identical trace from the persistent
   content-addressed store (:mod:`repro.store`) when a prior run
   already generated it,
3. size the scratchpad mapping from the algorithm's vtxProp footprint
   (Section V-A: one line holds all of a vertex's entries plus the
   active bit) and compile the algorithm's update function to PISC
   microcode (Section V-F),
4. replay the trace through the selected memory-hierarchy backend
   (any name in :func:`repro.memsim.backends.backend_names`), and
5. fold the counters into timing and energy.

Every hierarchy variant — baseline CMP, OMEGA, the Section IX locked
cache, GraphPIM, the dynamic scratchpad — runs through the same driver,
selected by ``RunRequest(backend=...)``. Each driver takes the
workload as a :class:`~repro.core.context.RunRequest` and the run's
surroundings (store, streaming, attribution, ledger, obs sinks) as a
:class:`~repro.core.context.RunContext`.

Because the trace depends only on ``(graph, algorithm, kwargs, cores,
chunk, reorder)`` — never on the hierarchy replaying it —
:func:`run_backends` generates (or loads) each *distinct* trace once
and replays every requested backend against it. It is one pipeline:
*Plan* resolves each backend and the context, *Acquire* installs the
context's obs sinks and prepares each trace (in-core or streamed),
*Replay* runs the backends (attributed when the context asks), and
*Emit* appends the ledger. :func:`run_system` is its one-backend case
plus the request's output files; :func:`estimate_system` shares Plan
and Acquire. :func:`compare_systems` is a thin wrapper that returns the
paper's headline ratios (speedup, traffic reduction, DRAM bandwidth
improvement, energy saving).
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import SimConfig
from repro.core.context import (
    ENV_ATTRIBUTION,
    ENV_SEGMENT_EVENTS,
    RunContext,
    RunRequest,
)
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.degree import degree_classes
from repro.graph.reorder import nth_element_order, reorder_nth_element
from repro.algorithms.common import AlgorithmResult, default_source
from repro.algorithms.registry import run_algorithm
from repro.core.offload import microcode_for_algorithm
from repro.core.report import Comparison, SimReport
from repro.ligra.segments import SegmentedTrace, SpoolingTraceBuilder
from repro.ligra.trace import Trace
from repro.memsim.core_model import compute_timing
from repro.memsim.energy import EnergyModel
from repro.memsim.estimate import ReplayEstimate, estimate_replay
from repro.memsim.backends import (
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    LockedCacheBackend,
    OmegaBackend,
    get_backend,
)
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.obs import (
    AttributionAccumulator,
    AttributionSpec,
    ReplaySampler,
    SpanTracer,
    append_entry,
    get_registry,
    get_tracer,
    make_entry,
    use_registry,
    use_tracer,
)
from repro.obs.attribution import FIELDS as ATTRIBUTION_FIELDS
from repro.store import TraceStore, trace_key

__all__ = [
    "run_system",
    "estimate_system",
    "run_backends",
    "compare_systems",
    "default_backend_config",
    "DEFAULT_CHUNK_SIZE",
    "RunContext",
    "RunRequest",
    "ENV_SEGMENT_EVENTS",
    "ENV_ATTRIBUTION",
]

_LOG = logging.getLogger("repro.core.system")

#: Default OpenMP-schedule chunk (and matching scratchpad-mapping chunk).
DEFAULT_CHUNK_SIZE = 32

# ENV_SEGMENT_EVENTS / ENV_ATTRIBUTION are re-exported from
# repro.core.context, the single module allowed to read REPRO_*
# environment variables (their behaviour is unchanged).

#: Report labels for backends whose name differs from the config name.
_BACKEND_LABELS = {
    "locked": "locked-cache",
    "graphpim": "graphpim",
    "dynamic": "dynamic-scratchpad",
}

#: Whether each backend's required preprocessing includes the offline
#: popularity reordering (Section VI). GraphPIM and the dynamic
#: scratchpad are explicitly "no preprocessing" designs; the baseline
#: runs the paper's original ordering.
_REORDER_DEFAULT = {
    "baseline": False,
    "omega": True,
    "locked": True,
    "graphpim": False,
    "dynamic": False,
}

#: The reorder recipe run_system applies (the trace-store key names it).
_REORDER_RECIPE = "nth-element/in"

#: Backends whose on-chip hot-vertex structure must be sized from the
#: algorithm's vtxProp footprint.
_HOT_SET_BACKENDS = ("omega", "locked", "dynamic")


def default_backend_config(backend: str, num_cores: int = 16) -> SimConfig:
    """The conventional scaled configuration for a named backend.

    Mirrors the paper's same-total-storage comparisons: baseline and
    GraphPIM keep the full cache hierarchy, the locked cache repurposes
    half the L2 without PISCs, OMEGA and the dynamic scratchpad run the
    full Table III OMEGA design. Used by the CLI and by every driver
    when no explicit config is given.
    """
    if backend in ("baseline", "graphpim"):
        return SimConfig.scaled_baseline(num_cores=num_cores)
    if backend == "locked":
        return SimConfig.scaled_omega(
            num_cores=num_cores, use_pisc=False, use_source_buffer=False
        )
    return SimConfig.scaled_omega(num_cores=num_cores)


@dataclass
class _TraceBundle:
    """Everything the replay stage needs from trace generation.

    Exactly this bundle is what the trace store persists: the columnar
    trace in the ``.npz`` plus the remaining fields in the JSON sidecar
    — so a warm hit can skip reorder and algorithm execution entirely.

    Exactly one of ``trace`` (whole-trace in-core) and ``segments``
    (out-of-core streaming: a bounded-memory
    :class:`~repro.ligra.segments.SegmentedTrace` handle) is set.
    Leaving the bundle's ``with`` block releases it.
    """

    trace: Optional[Trace]
    #: vtxProp (start, end) address ranges — the spatially-random
    #: regions the hybrid DRAM page policy serves close-page
    #: (Section IX direction 3).
    vtx_ranges: List[Tuple[int, int]]
    bytes_per_vertex: int
    num_vertices: int
    num_edges: int
    cache_enabled: bool = False
    cache_hit: bool = False
    cache_key: Optional[str] = None
    segments: Optional[SegmentedTrace] = None
    #: Resolved streaming segment size (``None`` for in-core runs).
    segment_events: Optional[int] = None
    #: Spool file this bundle owns and must delete on release (only
    #: when the unlink-while-open trick was unavailable).
    spool_path: Optional[str] = None

    @property
    def source(self) -> Union[Trace, SegmentedTrace]:
        return self.trace if self.trace is not None else self.segments

    @property
    def num_events(self) -> int:
        return self.source.num_events

    @property
    def nbytes(self) -> int:
        return self.source.nbytes

    def cache_info(self) -> Dict:
        """Manifest ``trace_cache`` block."""
        return {
            "enabled": self.cache_enabled,
            "hit": self.cache_hit,
            "key": self.cache_key,
        }

    def __enter__(self) -> "_TraceBundle":
        return self

    def __exit__(self, *exc) -> None:
        """Release the streaming handle and any owned spool file."""
        if self.segments is not None:
            self.segments.close()
        if self.spool_path is not None:
            try:
                os.unlink(self.spool_path)
            except OSError:
                pass
            self.spool_path = None


@dataclass
class _Plan:
    """What one driver call runs, resolved once before any trace exists."""

    graph: CSRGraph
    request: RunRequest
    context: RunContext
    tracer: Any
    registry: Any
    #: The request's algorithm kwargs with the traversal root pinned.
    alg_kwargs: Dict
    #: One resolved ``(name, config, reorder)`` per requested backend.
    backends: List[Tuple[str, SimConfig, bool]]


def _plan(
    graph: CSRGraph,
    request: RunRequest,
    backends: Sequence[Tuple[Optional[str], Optional[SimConfig]]],
    context: Optional[RunContext],
) -> _Plan:
    """Plan: resolve the backends, the traversal root and the context.

    Each ``(name, config)`` pair resolves once: a missing name is
    inferred from the config (``config.use_scratchpad`` selects OMEGA,
    otherwise the baseline CMP; no config at all means OMEGA), a
    missing config is the backend's :func:`default_backend_config` at
    ``request.num_cores``, and ``request.reorder=None`` takes the
    backend's :data:`_REORDER_DEFAULT`. Without a ``context`` the run
    uses :meth:`RunContext.from_env`, where ``request.attribution_path``
    turns attribution on. The obs sinks are the context's, else the
    thread's installed ones.
    """
    resolved = []
    for name, config in backends:
        if name is None:
            name = (
                "omega" if config is None or config.use_scratchpad
                else "baseline"
            )
        get_backend(name)  # validates the name
        if config is None:
            config = default_backend_config(name, num_cores=request.num_cores)
        reorder = request.reorder
        if reorder is None:
            reorder = _REORDER_DEFAULT.get(name, config.use_scratchpad)
        resolved.append((name, config, reorder))

    # Pin traversal roots to a *logical* vertex before any relabeling,
    # so runs with and without reordering traverse the same workload.
    alg_kwargs = dict(request.alg_kwargs)
    if (request.algorithm in ("bfs", "sssp", "bc")
            and alg_kwargs.get("source") is None):
        alg_kwargs["source"] = default_source(graph)

    if context is None:
        context = RunContext.from_env(
            attribution_path=request.attribution_path
        )
    tracer = context.tracer if context.tracer is not None else get_tracer()
    registry = (
        context.metrics if context.metrics is not None else get_registry()
    )
    return _Plan(graph, request, context, tracer, registry, alg_kwargs,
                 resolved)


def _attribution_spec(
    graph: CSRGraph, bundle: "_TraceBundle", reorder: bool
) -> AttributionSpec:
    """Build the run's attribution spec from the graph and its trace.

    The degree strata are computed on the *original* graph and, when
    the run reordered, permuted into trace id space with the same
    nth-element order the reorder applied — recomputed here from the
    degree vector, so warm store hits (which skip the reorder entirely)
    classify identically to cold runs.
    """
    regions = tuple(getattr(bundle.source, "regions", ()) or ())
    deg = graph.in_degrees()
    vclass = degree_classes(deg)
    if reorder and len(vclass):
        vclass = vclass[nth_element_order(deg)]
    counts = [int((vclass == c).sum()) for c in range(3)]
    return AttributionSpec(
        regions=regions,
        vertex_classes=vclass,
        meta={
            "degree_key": "in",
            "hub_fraction": 0.20,
            "torso_fraction": 0.30,
            "reorder": _REORDER_RECIPE if reorder else None,
            "hub_vertices": counts[0],
            "torso_vertices": counts[1],
            "tail_vertices": counts[2],
        },
    )


def _peak_rss_bytes() -> Optional[int]:
    """Process peak RSS in bytes, or ``None`` when unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def _make_spool(store: Optional[TraceStore], key: Optional[str]) -> str:
    """Create the spool file a streaming generation writes into.

    With a store destination the spool lives *inside the store root*
    (dot-prefixed, ``.tmp``-suffixed) so :meth:`TraceStore.adopt` is a
    same-filesystem rename and a crashed run's leftover matches the
    store's orphan-collection pattern. Without one it goes to the
    system temp directory.
    """
    if store is not None and key is not None:
        store.root.mkdir(parents=True, exist_ok=True)
        fd, spool = tempfile.mkstemp(
            dir=store.root, prefix=f".{key}.", suffix=".tmp.npz"
        )
    else:
        fd, spool = tempfile.mkstemp(prefix="repro-spool.", suffix=".npz")
    os.close(fd)
    return spool


def _generate_bundle(
    plan: _Plan,
    reorder: bool,
    num_cores: int,
    segment_events: Optional[int],
    key: Optional[str],
) -> _TraceBundle:
    """Cold path: reorder (optionally) and execute the algorithm.

    With ``segment_events`` set the engine appends into a
    :class:`~repro.ligra.segments.SpoolingTraceBuilder`, so the trace
    is never whole in memory: completed barrier spans stream to a
    segmented archive on disk and the bundle carries the open
    :class:`~repro.ligra.segments.SegmentedTrace` handle instead of an
    in-core trace. The spool file is created by :func:`_make_spool`;
    ownership of it stays on ``bundle.spool_path`` until the caller
    adopts it into the store or it is unlinked here (POSIX keeps the
    open archive handle readable after the unlink).
    """
    tracer = plan.tracer
    alg_kwargs = plan.alg_kwargs
    work_graph = plan.graph
    if reorder:
        with tracer.span("reorder", cat="run", key="in"):
            work_graph, new_ids = reorder_nth_element(plan.graph, key="in")
        if alg_kwargs.get("source") is not None:
            alg_kwargs = dict(alg_kwargs)
            alg_kwargs["source"] = int(new_ids[alg_kwargs["source"]])

    builder: Union[bool, SpoolingTraceBuilder] = True
    spool = None
    if segment_events is not None:
        spool = _make_spool(plan.context.store, key)
        builder = SpoolingTraceBuilder(spool, segment_events=segment_events)
    try:
        with tracer.span("trace_generation", cat="run",
                         streamed=spool is not None) as gen_span:
            result: AlgorithmResult = run_algorithm(
                plan.request.algorithm,
                work_graph,
                num_cores=num_cores,
                chunk_size=plan.request.chunk_size,
                trace=builder,
                **alg_kwargs,
            )
            trace = None
            segments = None
            if isinstance(builder, SpoolingTraceBuilder):
                segments = builder.finalize(
                    regions=tuple(result.engine.space.regions)
                )
            else:
                trace = result.trace
            source = trace if trace is not None else segments
            gen_span.annotate(
                events=source.num_events, trace_bytes=source.nbytes
            )
    except Exception:  # repro: noqa[EXC001] -- cleanup-and-reraise: abort the spool on any failure, then propagate it unchanged
        if isinstance(builder, SpoolingTraceBuilder):
            builder.abort()
        if spool is not None:
            try:
                os.unlink(spool)
            except OSError:
                pass
        raise
    _LOG.info(
        "trace generated%s: %d events, %.2f MiB",
        " (streamed)" if segments is not None else "",
        source.num_events, source.nbytes / (1024 * 1024),
    )
    vtx_ranges = [
        (p.start_addr, p.region.end) for p in result.engine.vtx_props
    ]
    return _TraceBundle(
        trace=trace,
        vtx_ranges=vtx_ranges,
        bytes_per_vertex=result.engine.vtxprop_bytes_per_vertex(),
        num_vertices=work_graph.num_vertices,
        num_edges=work_graph.num_edges,
        segments=segments,
        segment_events=segment_events,
        spool_path=spool,
    )


def _prepare_trace(
    plan: _Plan,
    reorder: bool,
    num_cores: int,
    segment_events: Optional[int],
) -> _TraceBundle:
    """Acquire: load the trace bundle from the store, or generate and
    cache it. Use the bundle in a ``with`` block to release it.

    With ``segment_events`` set every path stays out-of-core: a warm
    hit opens the stored segmented archive for streaming
    (:meth:`TraceStore.open_segments`) instead of rehydrating it, and
    a cold run spools through
    :class:`~repro.ligra.segments.SpoolingTraceBuilder` and donates the
    finished archive to the store via :meth:`TraceStore.adopt` — the
    whole trace is never resident.
    """
    store, tracer = plan.context.store, plan.tracer
    key = None
    if store is not None:
        key = trace_key(
            plan.graph,
            plan.request.algorithm,
            num_cores=num_cores,
            chunk_size=plan.request.chunk_size,
            reorder=_REORDER_RECIPE if reorder else None,
            alg_kwargs=plan.alg_kwargs,
        )
        if key is None:
            _LOG.debug(
                "trace store: kwargs not canonicalizable; bypassing cache"
            )
    if key is not None:
        with tracer.span("trace_store.load", cat="run", key=key,
                         streamed=segment_events is not None):
            entry = (
                store.open_segments(key) if segment_events is not None
                else store.load(key)
            )
        if entry is not None:
            source, meta = entry
            _LOG.info(
                "trace store hit: %s (%d events%s)", key, source.num_events,
                ", streamed" if segment_events is not None else "",
            )
            return _TraceBundle(
                trace=None if segment_events is not None else source,
                vtx_ranges=[
                    (int(lo), int(hi)) for lo, hi in meta["vtx_ranges"]
                ],
                bytes_per_vertex=int(meta["bytes_per_vertex"]),
                num_vertices=int(meta["num_vertices"]),
                num_edges=int(meta["num_edges"]),
                cache_enabled=True,
                cache_hit=True,
                cache_key=key,
                segments=source if segment_events is not None else None,
                segment_events=segment_events,
            )
        _LOG.info("trace store miss: %s", key)
    bundle = _generate_bundle(plan, reorder, num_cores, segment_events, key)
    if key is not None:
        chunk_size = plan.request.chunk_size
        # The JSON sidecar the stored trace carries next to its archive.
        meta = {
            "algorithm": plan.request.algorithm,
            "graph_fingerprint": plan.graph.fingerprint(),
            "num_cores": int(num_cores),
            "chunk_size": None if chunk_size is None else int(chunk_size),
            "reorder": _REORDER_RECIPE if reorder else None,
            "num_events": bundle.num_events,
            "trace_nbytes": bundle.nbytes,
            "vtx_ranges": [list(r) for r in bundle.vtx_ranges],
            "bytes_per_vertex": bundle.bytes_per_vertex,
            "num_vertices": bundle.num_vertices,
            "num_edges": bundle.num_edges,
        }
        with tracer.span("trace_store.store", cat="run", key=key,
                         streamed=bundle.segments is not None):
            if bundle.segments is not None:
                # The archive is already on disk next to the store:
                # rename it into place. The bundle's open handle keeps
                # reading the same inode after the rename.
                store.adopt(key, bundle.spool_path, meta)
                bundle.spool_path = None
            else:
                store.store(key, bundle.trace, meta)
        bundle.cache_enabled = True
        bundle.cache_key = key
    elif bundle.spool_path is not None:
        # No store destination: drop the directory entry now and keep
        # streaming from the open handle (the inode lives until the
        # bundle's ``with`` block closes it).
        try:
            os.unlink(bundle.spool_path)
        except OSError:  # pragma: no cover - non-POSIX semantics
            pass
        else:
            bundle.spool_path = None
    return bundle


@contextmanager
def _installed(plan: _Plan, driver: str) -> Iterator[None]:
    """Acquire, first half: install the context's obs sinks for the
    whole driver call, under the driver's root span."""
    request = plan.request
    names = ",".join(name for name, _, _ in plan.backends)
    _LOG.info(
        "%s: algorithm=%s dataset=%s backends=%s",
        driver, request.algorithm, request.dataset or "?", names,
    )
    with use_tracer(plan.tracer), use_registry(plan.registry), \
            plan.tracer.span(driver, cat="run", algorithm=request.algorithm,
                             dataset=request.dataset, backends=names):
        yield


def _make_hierarchy(
    plan: _Plan,
    bundle: _TraceBundle,
    backend_name: str,
    config: SimConfig,
    pim,
):
    """Construct the hierarchy backend for one prepared trace.

    Sizes the scratchpad mapping from the trace's vtxProp footprint and
    compiles PISC microcode where the backend uses it. Shared between
    the real replay (:func:`_replay_bundle`) and the analytic
    estimator (:func:`estimate_system`) so both see the exact same
    machine. Returns ``(hierarchy, hot_capacity)``.
    """
    hot_capacity = 0
    mapping = None
    if backend_name in _HOT_SET_BACKENDS:
        sp_bytes = config.scratchpad_total_bytes
        if backend_name == "locked" and not sp_bytes:
            # The locked region repurposes half the on-chip
            # storage, exactly like OMEGA's scratchpads.
            sp_bytes = config.total_onchip_bytes // 2
        hot_capacity = hot_capacity_for(
            sp_bytes,
            bundle.bytes_per_vertex,
            bundle.num_vertices,
        )
        if backend_name != "dynamic":
            sp_chunk_size = plan.request.sp_chunk_size
            mapping = ScratchpadMapping(
                num_cores=config.core.num_cores,
                hot_capacity=hot_capacity,
                chunk_size=(
                    sp_chunk_size if sp_chunk_size is not None
                    else plan.request.chunk_size
                ),
            )

    microcode = None
    if backend_name in ("omega", "dynamic") and config.use_pisc:
        microcode = microcode_for_algorithm(plan.request.algorithm)

    if backend_name == "baseline":
        hierarchy = BaselineBackend(
            config, dram_random_ranges=bundle.vtx_ranges
        )
    elif backend_name == "omega":
        hierarchy = OmegaBackend(
            config, mapping, microcode,
            dram_random_ranges=bundle.vtx_ranges,
        )
    elif backend_name == "locked":
        hierarchy = LockedCacheBackend(config, mapping)
    elif backend_name == "graphpim":
        hierarchy = GraphPimBackend(config, pim)
    elif backend_name == "dynamic":
        hierarchy = DynamicScratchpadBackend(
            config, hot_capacity, microcode
        )
    else:
        # Extension backends take just the config.
        hierarchy = get_backend(backend_name)(config)
    return hierarchy, hot_capacity


def _replay_bundle(
    plan: _Plan,
    bundle: _TraceBundle,
    backend_name: str,
    config: SimConfig,
    energy_model: Optional[EnergyModel],
    pim,
    sampler: Optional[ReplaySampler],
    attribution_acc: Optional[AttributionAccumulator],
) -> SimReport:
    """Replay a prepared trace through one backend and build the report."""
    tracer = plan.tracer
    with tracer.span("prepare_backend", cat="run", backend=backend_name):
        hierarchy, hot_capacity = _make_hierarchy(
            plan, bundle, backend_name, config, pim
        )
    # Thread the context's scalar-cache flag onto the backend instance
    # so the replay driver never consults ambient state on the hot
    # path.
    hierarchy.scalar_cache = plan.context.scalar_cache
    # Every run sharing the store handle replays each distinct
    # cache-path stream once (omega and locked route the same one).
    store = plan.context.store
    hierarchy.cache_memo = None if store is None else store.cache_path_memo

    replay_start = time.perf_counter()
    output = hierarchy.replay(
        bundle.source, sampler=sampler, attribution=attribution_acc
    )
    replay_seconds = time.perf_counter() - replay_start
    attribution_block = None
    if attribution_acc is not None:
        # The conservation invariant is load-bearing: a mismatch means
        # the attribution (or the accounting it mirrors) miscounted.
        attribution_acc.verify(output.stats, bundle.num_events)
        attribution_block = attribution_acc.result()
        if tracer.enabled:
            per_class = attribution_acc.per_class()
            for fld in ATTRIBUTION_FIELDS:
                tracer.counter(
                    f"attribution.{fld}",
                    {name: per_class[name][fld] for name in per_class},
                )
    with tracer.span("timing_energy", cat="run"):
        timing = compute_timing(output, config)
        model = energy_model or EnergyModel()
        energy = model.breakdown(output.stats)

    n = bundle.num_vertices
    report = SimReport(
        system=_BACKEND_LABELS.get(backend_name, config.name),
        algorithm=plan.request.algorithm,
        dataset=plan.request.dataset,
        config=config,
        stats=output.stats,
        timing=timing,
        energy=energy,
        replay=output,
        hot_capacity=hot_capacity,
        hot_fraction=hot_capacity / n if n else 0.0,
        num_vertices=n,
        num_edges=bundle.num_edges,
        trace_events=bundle.num_events,
        trace_bytes=bundle.nbytes,
        backend=backend_name,
        replay_seconds=replay_seconds,
        trace_cache=bundle.cache_info(),
        segment_events=bundle.segment_events,
        num_segments=output.num_segments,
        streamed=bundle.segments is not None,
        peak_rss_bytes=_peak_rss_bytes(),
        attribution=attribution_block,
    )
    if sampler is not None:
        report.timeline = sampler.timeline()
        if plan.registry.enabled:
            report.timeline.metrics = plan.registry.snapshot()
    _LOG.info(
        "run complete: %.0f cycles, bottleneck=%s, replay %.3fs",
        timing.total_cycles, timing.bottleneck, replay_seconds,
    )
    return report


def _replay(
    plan: _Plan,
    driver: str,
    energy_model: Optional[EnergyModel],
    pim,
    sampler: Optional[ReplaySampler] = None,
) -> Dict[str, SimReport]:
    """Acquire and Replay: each trace signature's bundle once, then
    every backend that shares it.

    A bundle is released as soon as its backends are done. With
    ``context.attribution`` set, each bundle gets one
    :class:`AttributionSpec` and each backend its own accumulator.
    Returns the reports in request order.
    """
    # Trace signature (reorder, cores) -> the backends replaying it.
    groups: Dict[Tuple[bool, int], List[Tuple[str, SimConfig]]] = {}
    for name, config, reorder in plan.backends:
        signature = (bool(reorder), config.core.num_cores)
        groups.setdefault(signature, []).append((name, config))
    reports: Dict[str, SimReport] = {}
    with _installed(plan, driver):
        for (reorder, num_cores), legs in groups.items():
            with _prepare_trace(plan, reorder, num_cores,
                                plan.context.segment_events) as bundle:
                spec = None
                if plan.context.attribution:
                    with plan.tracer.span("attribution_spec", cat="run"):
                        spec = _attribution_spec(plan.graph, bundle, reorder)
                for name, config in legs:
                    reports[name] = _replay_bundle(
                        plan, bundle, name, config, energy_model, pim,
                        sampler,
                        None if spec is None else AttributionAccumulator(spec),
                    )
    return {name: reports[name] for name, _, _ in plan.backends}


def _emit(
    plan: _Plan, reports: Dict[str, SimReport], request_files: bool
) -> None:
    """Emit: write the request's output files, then the ledger.

    Each request path names one file, so only a one-backend call
    (``request_files``) writes them; every report gets its own ledger
    entry.
    """
    request = plan.request
    if request_files:
        (report,) = reports.values()
        if request.trace_path is not None:
            plan.tracer.export_chrome(request.trace_path)
            _LOG.info("wrote Chrome trace to %s", request.trace_path)
        if request.timeline_path is not None and report.timeline is not None:
            report.timeline.save(request.timeline_path)
            _LOG.info(
                "wrote %d-window timeline to %s",
                report.timeline.num_windows, request.timeline_path,
            )
        path = request.attribution_path
        if path is not None and report.attribution is not None:
            parent = os.path.dirname(os.fspath(path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "w") as f:
                json.dump(report.attribution, f, indent=2, sort_keys=True)
            _LOG.info("wrote attribution breakdown to %s", path)
        if request.manifest_path is not None:
            report.save_manifest(request.manifest_path)
    ledger = plan.context.ledger_path
    if ledger is not None:
        for report in reports.values():
            append_entry(ledger, make_entry(report.manifest(), kind="run"))
        _LOG.info("appended %d run-ledger entries to %s", len(reports), ledger)


def run_system(
    graph: CSRGraph,
    request: RunRequest,
    config: Optional[SimConfig] = None,
    *,
    context: Optional[RunContext] = None,
    energy_model: Optional[EnergyModel] = None,
    pim=None,
) -> SimReport:
    """Run one algorithm on one graph through one system configuration.

    This is :func:`run_backends` with one backend, plus the request's
    output files.

    Parameters
    ----------
    graph:
        Input graph (in its original vertex order).
    request:
        *What* to run: the :class:`~repro.core.context.RunRequest`
        names the algorithm and its kwargs, the backend, the engine
        chunk sizes, the reorder choice and the output files (manifest,
        Chrome trace, timeline, attribution JSON).
    config:
        System description. When omitted it is
        :func:`default_backend_config` for ``request.backend``
        (default OMEGA) at ``request.num_cores``; when given without
        ``request.backend``, ``config.use_scratchpad`` selects the
        OMEGA hierarchy, otherwise the baseline CMP.
    context:
        *With which surroundings*: the
        :class:`~repro.core.context.RunContext` carries the trace
        store, the out-of-core segment size, the attribution flag, the
        run ledger, the scalar-cache flag and the obs sinks. A given
        context is authoritative and no environment variable is read
        anywhere in the run. When omitted it is
        :meth:`RunContext.from_env`, where ``request.attribution_path``
        turns attribution on.
    energy_model:
        Energy constants; defaults to :class:`EnergyModel`.
    pim:
        Optional :class:`~repro.memsim.backends.PimConfig` for the
        ``graphpim`` backend.
    """
    plan = _plan(graph, request, [(request.backend, config)], context)
    if request.trace_path is not None and not plan.tracer.enabled:
        plan.tracer = SpanTracer()  # the Chrome trace needs a live sink
    sampler = None
    if request.timeline_path is not None or request.obs_window is not None:
        sampler = ReplaySampler(request.obs_window or 0)
    reports = _replay(plan, "run_system", energy_model, pim, sampler)
    _emit(plan, reports, request_files=True)
    (report,) = reports.values()
    return report


def estimate_system(
    graph: CSRGraph,
    request: RunRequest,
    config: Optional[SimConfig] = None,
    *,
    context: Optional[RunContext] = None,
    pim=None,
) -> "ReplayEstimate":
    """Predict a run's headline counters without replaying it.

    The trace-preparation stages are identical to :func:`run_system`
    (same store keys, same reorder defaults, same hierarchy sizing,
    same obs sinks), but the replay is replaced by the closed-form
    model of :func:`repro.memsim.estimate.estimate_replay`: exact route
    shares, reuse-gap cache predictions, no stateful kernel. Used by
    ``repro sweep --estimate-prune`` to skip configurations whose
    predicted metrics fall outside the band of interest.

    The estimator reads its trace piece by piece, as replay does, so
    the context's ``segment_events`` streams it exactly as it streams
    :func:`run_system`: a cold estimate spools the trace and adopts it
    into the store, a warm one opens the stored segments, and the
    whole trace is never resident. The estimate is identical either
    way. The arguments mean what they mean for :func:`run_system`; the
    request's output paths are not written and no ledger entry is
    appended. Returns the
    :class:`~repro.memsim.estimate.ReplayEstimate`.
    """
    plan = _plan(graph, request, [(request.backend, config)], context)
    ((name, config, reorder),) = plan.backends
    with _installed(plan, "estimate_system"), _prepare_trace(
        plan, reorder, config.core.num_cores, plan.context.segment_events
    ) as bundle:
        hierarchy, _ = _make_hierarchy(plan, bundle, name, config, pim)
        with plan.tracer.span("estimate", cat="run", backend=name,
                              events=bundle.num_events):
            return estimate_replay(hierarchy, bundle.source)


def run_backends(
    graph: CSRGraph,
    request: RunRequest,
    backends: Sequence[str],
    configs: Optional[Dict[str, SimConfig]] = None,
    *,
    context: Optional[RunContext] = None,
    energy_model: Optional[EnergyModel] = None,
    pim=None,
) -> Dict[str, SimReport]:
    """Replay one workload through several backends, sharing traces.

    The memory trace depends on the graph, algorithm, kwargs, core
    count, chunk size and reorder recipe — *not* on the hierarchy that
    replays it — so each distinct trace is generated (or loaded from
    the trace store) exactly once and every backend that needs it
    replays the same trace. With the paper's defaults that means two
    generations (original order for baseline/GraphPIM/dynamic,
    reordered for OMEGA/locked) regardless of how many backends run.

    The arguments mean what they mean for :func:`run_system`, except
    that ``backends`` names the set to sweep (``request.backend`` is
    ignored) and ``configs`` optionally maps a backend name to its
    :class:`SimConfig` (defaults per backend via
    :func:`default_backend_config` at ``request.num_cores``). The
    context is honoured as in :func:`run_system` — streamed,
    attributed, its obs sinks, and one ledger entry per report — but
    the request's output files (manifest, Chrome trace, timeline,
    attribution JSON) are not written, since each names one file.
    Returns an ordered ``{backend name: SimReport}`` in the order
    requested.
    """
    if not backends:
        raise SimulationError("run_backends needs at least one backend name")
    configs = configs or {}
    plan = _plan(graph, request,
                 [(name, configs.get(name)) for name in backends], context)
    reports = _replay(plan, "run_backends", energy_model, pim)
    _emit(plan, reports, request_files=False)
    return reports


def compare_systems(
    graph: CSRGraph,
    request: RunRequest,
    baseline_config: Optional[SimConfig] = None,
    omega_config: Optional[SimConfig] = None,
    *,
    context: Optional[RunContext] = None,
    energy_model: Optional[EnergyModel] = None,
) -> Comparison:
    """Run baseline and OMEGA on the same workload; return the ratios.

    Defaults to the scaled Table III configurations with equal total
    on-chip storage (the paper's "same-sized" comparison). A thin
    wrapper over :func:`run_backends`, so the two runs share the trace
    store.
    """
    baseline_config = baseline_config or SimConfig.scaled_baseline()
    omega_config = omega_config or SimConfig.scaled_omega()
    if baseline_config.use_scratchpad:
        raise SimulationError("baseline_config must not use scratchpads")
    if not omega_config.use_scratchpad:
        raise SimulationError("omega_config must use scratchpads")
    reports = run_backends(
        graph, request, ("baseline", "omega"),
        configs={"baseline": baseline_config, "omega": omega_config},
        context=context, energy_model=energy_model,
    )
    return Comparison(baseline=reports["baseline"], omega=reports["omega"])
