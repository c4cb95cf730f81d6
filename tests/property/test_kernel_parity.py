"""Exact-parity suite: batch kernel vs the scalar reference oracle.

The batch-vectorized cache kernel
(:meth:`repro.memsim.cachestate.CacheSystem._replay_kernel`) must
reproduce the scalar per-event oracle (a backend's ``scalar_cache``
flag, which ``REPRO_SCALAR_CACHE=1`` sets through the run context)
*exactly* — every integer counter, every
per-core float latency sum, and the full final cache/directory/DRAM
state — across all five hierarchy backends, every interconnect
topology, and every DRAM page policy. No tolerances anywhere in this
file: a single-bit divergence is a bug.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import run_algorithm
from repro.config import SimConfig
from repro.core.offload import microcode_for_algorithm
from repro.graph.generators import rmat_graph
from repro.ligra.trace import (
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_UPDATE,
    FLAG_WRITE,
    AccessClass,
    Trace,
)
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_system
from repro.memsim.backends import (
    BaselineBackend,
    DynamicScratchpadBackend,
    GraphPimBackend,
    LockedCacheBackend,
    OmegaBackend,
)
from repro.ligra.segments import SegmentedTrace
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.scratchpad import hot_capacity_for
from repro.obs import ReplaySampler

NCORES = 4


def snapshot(out):
    """Every observable a replay produces, as one comparable dict.

    Includes the final *state* of the models — cache set contents with
    LRU order and dirty bits, the directory's line map, DRAM open-row
    registers — not just the counters, so state divergence that has
    not yet surfaced in a counter still fails the comparison.
    """
    return {
        "stats": dataclasses.asdict(out.stats),
        "l1": [[list(s.items()) for s in c._sets] for c in out.l1s],
        "l2": [[list(s.items()) for s in c._sets] for c in out.l2_banks],
        "directory": dict(out.directory._lines),
        "dram": (
            out.dram.row_hits, out.dram.row_misses,
            list(out.dram._open_rows),
        ),
    }


def assert_parity(make_backend, trace, sampler=False):
    """Replay twice — kernel and scalar oracle — and compare exactly."""
    kernel = make_backend()
    out_k = kernel.replay(
        trace, sampler=ReplaySampler(64) if sampler else None
    )
    oracle = make_backend()
    oracle.scalar_cache = True
    out_o = oracle.replay(
        trace, sampler=ReplaySampler(64) if sampler else None
    )
    snap_k, snap_o = snapshot(out_k), snapshot(out_o)
    assert snap_k == snap_o
    # Float latency sums must be EXACT (same per-core accumulation
    # order), not just close.
    assert snap_k["stats"]["core_mem_latency"] == \
        snap_o["stats"]["core_mem_latency"]
    return out_k, out_o


def make_trace(cores, addrs, flags, classes=None, vertices=None):
    n = len(addrs)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=(
            np.full(n, int(AccessClass.NGRAPH), dtype=np.int8)
            if classes is None
            else np.asarray(classes, dtype=np.int8)
        ),
        flags=np.asarray(flags, dtype=np.int8),
        vertex=(
            np.full(n, -1, dtype=np.int64)
            if vertices is None
            else np.asarray(vertices, dtype=np.int64)
        ),
    )


def baseline_config(topology="crossbar", page_policy="closed"):
    cfg = SimConfig.scaled_baseline(num_cores=NCORES)
    return dataclasses.replace(
        cfg,
        interconnect=dataclasses.replace(cfg.interconnect,
                                         topology=topology),
        dram=dataclasses.replace(cfg.dram, page_policy=page_policy),
    )


# Event tuples: (core, line_id, offset_words, flags). A small line
# universe forces set conflicts, evictions, coherence churn, and
# repeated same-line runs (the screened fast case) in every example.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, NCORES - 1),
        st.integers(0, 63),
        st.integers(0, 7),
        st.sampled_from([0, FLAG_WRITE, FLAG_WRITE | FLAG_ATOMIC]),
    ),
    min_size=1,
    max_size=400,
)


def events_to_trace(events):
    cores = [e[0] for e in events]
    addrs = [0x100000 + e[1] * 64 + e[2] * 8 for e in events]
    flags = [e[3] for e in events]
    return make_trace(cores, addrs, flags)


class TestRandomizedTraceParity:
    """Hypothesis-driven traces through every config family."""

    @given(EVENTS)
    @settings(max_examples=60, deadline=None)
    def test_crossbar_closed(self, events):
        cfg = baseline_config()
        assert_parity(lambda: BaselineBackend(cfg), events_to_trace(events))

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_mesh_topology(self, events):
        cfg = baseline_config(topology="mesh")
        assert_parity(lambda: BaselineBackend(cfg), events_to_trace(events))

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_open_page_dram(self, events):
        cfg = baseline_config(page_policy="open")
        # Random ranges set but must be IGNORED under plain open-page.
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100000, 0x100800)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_hybrid_page_dram(self, events):
        cfg = baseline_config(page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100000, 0x100800)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=20, deadline=None)
    def test_mesh_hybrid_combined(self, events):
        cfg = baseline_config(topology="mesh", page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(
                cfg, dram_random_ranges=[(0x100400, 0x100c00)]
            ),
            events_to_trace(events),
        )

    @given(EVENTS)
    @settings(max_examples=20, deadline=None)
    def test_windowed_replay(self, events):
        cfg = baseline_config()
        assert_parity(
            lambda: BaselineBackend(cfg), events_to_trace(events),
            sampler=True,
        )


def thrashing_config(ways):
    """The smallest L2 a config accepts: one ``ways``-way set per bank,
    so nearly every L1 miss evicts an L2 line, most of them dirty."""
    cfg = baseline_config(page_policy="open")
    l2 = dataclasses.replace(
        cfg.l2_per_core, size_bytes=cfg.l2_per_core.line_bytes * ways,
        ways=ways,
    )
    assert l2.num_sets == 1
    return dataclasses.replace(cfg, l2_per_core=l2)


class TestThrashingL2Parity:
    """A one-set L2 replayed in pieces: every piece starts from the
    previous one's L2 contents, and the open-page DRAM machine sees the
    write-backs in order."""

    @given(EVENTS, st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_windowed(self, events, ways):
        cfg = thrashing_config(ways)
        assert_parity(lambda: BaselineBackend(cfg), events_to_trace(events),
                      sampler=True)

    @given(EVENTS, st.sampled_from([1, 2]), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_streamed(self, events, ways, segment_events):
        cfg = thrashing_config(ways)
        trace = events_to_trace(events)
        kernel = BaselineBackend(cfg)
        out_k = kernel.replay(SegmentedTrace.from_trace(trace,
                                                        segment_events))
        oracle = BaselineBackend(cfg)
        oracle.scalar_cache = True
        out_o = oracle.replay(trace)
        assert snapshot(out_k) == snapshot(out_o)


@pytest.fixture(scope="module")
def workload():
    """A real PageRank trace plus everything backends need to route it."""
    graph = rmat_graph(8, edge_factor=6, seed=7)
    result = run_algorithm("pagerank", graph, num_cores=NCORES,
                           chunk_size=32, trace=True)
    ranges = [(p.start_addr, p.region.end) for p in result.engine.vtx_props]
    bpv = result.engine.vtxprop_bytes_per_vertex()
    return result.trace, ranges, bpv, graph.num_vertices


def all_backend_factories(workload, num_cores=NCORES):
    trace, ranges, bpv, nverts = workload
    bcfg = SimConfig.scaled_baseline(num_cores=num_cores)
    ocfg = SimConfig.scaled_omega(num_cores=num_cores)
    lcfg = SimConfig.scaled_omega(num_cores=num_cores, use_pisc=False,
                                  use_source_buffer=False)
    microcode = microcode_for_algorithm("pagerank")
    hot = hot_capacity_for(ocfg.scratchpad_total_bytes, bpv, nverts)
    mapping = ScratchpadMapping(num_cores, hot, chunk_size=32)
    return {
        "baseline": lambda: BaselineBackend(bcfg, dram_random_ranges=ranges),
        "omega": lambda: OmegaBackend(ocfg, mapping, microcode,
                                      dram_random_ranges=ranges),
        "locked": lambda: LockedCacheBackend(lcfg, mapping),
        "graphpim": lambda: GraphPimBackend(bcfg),
        "dynamic": lambda: DynamicScratchpadBackend(ocfg, hot, microcode),
    }


class TestAllBackendsParity:
    """All five backends, one real workload, exact equality."""

    @pytest.mark.parametrize(
        "name", ["baseline", "omega", "locked", "graphpim", "dynamic"]
    )
    def test_backend_parity(self, workload, name):
        factories = all_backend_factories(workload)
        assert_parity(factories[name], workload[0])

    @pytest.mark.parametrize("name", ["baseline", "omega"])
    def test_windowed_timelines_identical(self, workload, name):
        """Windowed kernel and windowed oracle emit the same timeline."""
        factories = all_backend_factories(workload)
        kernel = factories[name]()
        s_k = ReplaySampler(4096)
        kernel.replay(workload[0], sampler=s_k)
        oracle = factories[name]()
        oracle.scalar_cache = True
        s_o = ReplaySampler(4096)
        oracle.replay(workload[0], sampler=s_o)
        cols_k = dict(s_k.timeline().columns)
        cols_o = dict(s_o.timeline().columns)
        cols_k.pop("wall_seconds"), cols_o.pop("wall_seconds")
        assert cols_k == cols_o

    def test_hybrid_dram_workload_parity(self, workload):
        """The paper's hybrid page policy on a real trace."""
        trace, ranges, _, _ = workload
        cfg = baseline_config(page_policy="hybrid")
        assert_parity(
            lambda: BaselineBackend(cfg, dram_random_ranges=ranges), trace
        )


def run_from_env(graph, monkeypatch, env_value):
    """One PageRank run whose context comes from the environment."""
    if env_value is None:
        monkeypatch.delenv("REPRO_SCALAR_CACHE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SCALAR_CACHE", env_value)
    context = RunContext.from_env(cache=False)
    request = RunRequest(algorithm="pagerank", backend="baseline",
                         num_cores=NCORES)
    return context, run_system(graph, request=request, context=context)


class TestScalarEscapeHatches:
    """``REPRO_SCALAR_CACHE`` is read once, by ``RunContext.from_env``."""

    def test_env_var_forces_oracle(self, monkeypatch):
        graph = rmat_graph(7, edge_factor=6, seed=11)
        context, report = run_from_env(graph, monkeypatch, "1")
        assert context.scalar_cache is True
        kernel = report.manifest()["replay"]["kernel"]
        assert kernel["mode"] == "scalar"
        assert kernel["batches"] == 0

    def test_env_var_replay_matches_kernel(self, monkeypatch):
        graph = rmat_graph(7, edge_factor=6, seed=11)
        _, scalar = run_from_env(graph, monkeypatch, "1")
        _, kernel = run_from_env(graph, monkeypatch, None)
        assert scalar.replay.kernel["mode"] == "scalar"
        assert kernel.replay.kernel["mode"] == "kernel"
        assert scalar.stats.as_dict() == kernel.stats.as_dict()
        assert scalar.cycles == kernel.cycles

    def test_force_scalar_attribute_respected(self):
        cfg = baseline_config()
        backend = BaselineBackend(cfg)
        backend.scalar_cache = True
        trace = make_trace([0], [0x100000], [0])
        out = backend.replay(trace)
        assert out.stats.l1_misses == 1


class TestSourceBufferAndUpdateRoutes:
    """Trace shapes that exercise OMEGA's srcbuf + offload routing
    alongside the cache path, end to end, kernel vs oracle."""

    def test_mixed_class_trace(self, workload):
        _, ranges, bpv, nverts = workload
        ocfg = SimConfig.scaled_omega(num_cores=NCORES)
        hot = hot_capacity_for(ocfg.scratchpad_total_bytes, bpv, nverts)
        mapping = ScratchpadMapping(NCORES, hot, chunk_size=32)
        microcode = microcode_for_algorithm("pagerank")
        rng = np.random.default_rng(3)
        n = 600
        cores = rng.integers(0, NCORES, n)
        verts = rng.integers(0, max(hot, 1) * 2, n)
        addrs = 0x100000 + verts * 8
        classes = np.where(rng.random(n) < 0.6,
                           int(AccessClass.VTXPROP),
                           int(AccessClass.EDGELIST))
        flags = np.where(
            rng.random(n) < 0.3, FLAG_WRITE | FLAG_ATOMIC | FLAG_UPDATE,
            np.where(rng.random(n) < 0.3, FLAG_SRC_READ, 0),
        )
        trace = make_trace(cores, addrs, flags, classes, verts)
        assert_parity(
            lambda: OmegaBackend(ocfg, mapping, microcode), trace
        )


def thrashing_l1_config(ways, num_cores=NCORES):
    """A one-set L1 of ``ways`` ways: every line competes for it, so
    nearly every write misses, evicts dirty and invalidates."""
    cfg = baseline_config(page_policy="open")
    cfg = dataclasses.replace(
        cfg, core=dataclasses.replace(cfg.core, num_cores=num_cores))
    l1 = dataclasses.replace(cfg.l1, size_bytes=cfg.l1.line_bytes * ways,
                             ways=ways)
    assert l1.num_sets == 1
    return dataclasses.replace(cfg, l1=l1)


@st.composite
def coherence_storms(draw, num_cores=NCORES):
    """Write-heavy events from every core on a few lines, with
    sequential line runs mixed in so the prefetch heads advance."""
    runs = draw(st.lists(
        st.tuples(
            st.integers(0, num_cores - 1),
            st.integers(0, 5),
            st.integers(1, 6),
            st.sampled_from([FLAG_WRITE, FLAG_WRITE | FLAG_ATOMIC, 0,
                             FLAG_WRITE]),
        ),
        min_size=1, max_size=120,
    ))
    events = []
    for core, base, length, flags in runs:
        events += [(core, base + i, 0, flags) for i in range(length)]
    return events


def assert_streamed_parity(cfg, events, segment_events):
    trace = events_to_trace(events)
    kernel = BaselineBackend(cfg)
    out_k = kernel.replay(SegmentedTrace.from_trace(trace, segment_events))
    oracle = BaselineBackend(cfg)
    oracle.scalar_cache = True
    out_o = oracle.replay(trace)
    assert snapshot(out_k) == snapshot(out_o)


class TestCoherenceThrashingParity:
    """A one-set L1 under write ping-pong, replayed in pieces: every
    piece starts from the previous one's L1 sets, directory entries
    (stale bits included) and prefetch heads."""

    @given(coherence_storms(), st.sampled_from([1, 2]),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_streamed(self, events, ways, segment_events):
        assert_streamed_parity(thrashing_l1_config(ways), events,
                               segment_events)

    @pytest.mark.parametrize("num_cores", [64, 128])
    def test_wide_sharer_masks(self, num_cores):
        # Every core reads a few shared lines, then writes them in turn:
        # one write invalidates up to num_cores - 1 sharers.
        rng = np.random.default_rng(num_cores)
        events = [(c, line, 0, 0) for line in range(3)
                  for c in range(num_cores)]
        events += [(int(c), int(line), 0, FLAG_WRITE)
                   for c, line in zip(rng.integers(0, num_cores, 200),
                                      rng.integers(0, 3, 200))]
        events += [(c, 3 + i, 0, 0) for c in range(0, num_cores, 7)
                   for i in range(4)]
        cfg = thrashing_l1_config(2, num_cores=num_cores)
        for segment_events in (1, 17, len(events)):
            assert_streamed_parity(cfg, events, segment_events)
        out = BaselineBackend(cfg).replay(events_to_trace(events))
        assert out.stats.coherence_invalidations >= num_cores - 1


class TestWideBatchParity:
    """One batch with more distinct lines than int16 can number: the
    screen's line ranks and the L1 stage's op keys must not wrap."""

    def test_more_than_int16_distinct_lines(self):
        rng = np.random.default_rng(15)
        n = 100_000
        lines = rng.integers(0, 60_000, n)
        assert len(np.unique(lines)) > 1 << 15
        flags = rng.choice([0, FLAG_WRITE, FLAG_WRITE | FLAG_ATOMIC], n,
                           p=[0.6, 0.3, 0.1])
        trace = make_trace(rng.integers(0, NCORES, n),
                           0x1000_0000 + lines * 64, flags)
        assert_parity(lambda: BaselineBackend(baseline_config()), trace)
