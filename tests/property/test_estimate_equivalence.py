"""Equivalence: the mask-selected estimator equals the gather-based one.

:func:`repro.memsim.estimate.estimate_replay` selects cache-routed
events with the route mask, reads the prepass and trace columns in
place when every event is cache-routed, and derives L2 bank keys only
for the predicted L1 misses. Those are memory choices, not model
changes, so every :class:`ReplayEstimate` field must equal the
estimator's earlier form, kept here as the oracle: an int64 index of
the cache-routed events, a gather of every column through it, and a
full-length bank-key column. The oracle reads the whole trace at
once; the estimator reads it in pieces (``test_estimate_pieces``
cuts it finer). Both add each PIM atomic's in-memory bytes (half to
reads, half to writes) to the DRAM traffic, as
``GraphPimBackend.account`` charges replay.

Cases: all five backends on two small dataset stand-ins, a trace with
no cache-routed event (on GraphPIM its DRAM bytes equal replay's),
128 and 256 cores (the prepass keeps core ids in int8 up to 128 cores
and wider above), and cache-routed lines spanning more than int32 (the
estimator gathers int32 line offsets only when their span fits).
"""

import dataclasses

import numpy as np
import pytest

from repro import load_dataset
from repro.algorithms.registry import run_algorithm
from repro.config import SimConfig
from repro.intsort import stable_argsort
from repro.ligra.trace import FLAG_ATOMIC, AccessClass, Trace
from repro.memsim.accounting import LatencyLedger, ReplayContext
from repro.memsim.cachestate import CacheSystem
from repro.memsim.dram import DramModel
from repro.memsim.estimate import ReplayEstimate, _slot_column, estimate_replay
from repro.memsim.geometry import BankGeometry
from repro.memsim.interconnect import Crossbar
from repro.memsim.prepass import precompute
from repro.memsim.routes import (
    ROUTE_CACHE,
    ROUTE_LOCKED,
    ROUTE_PIM,
    ROUTE_SP_OFFLOAD,
    ROUTE_SP_PLAIN,
    ROUTE_SP_RMW,
    ROUTE_SRCBUF_HIT,
)
from repro.memsim.stats import MemStats

from .test_kernel_parity import all_backend_factories

BACKENDS = ["baseline", "omega", "locked", "graphpim", "dynamic"]


def _gather_predict(slots, keys, ways):
    """The reuse-gap rule with min-offset keys built through int64."""
    n = len(slots)
    out = np.zeros(n, dtype=bool)
    if n < 2 or ways <= 0:
        return out
    so = stable_argsort(slots)
    ss = slots[so]
    kmin = int(keys.min())
    kdt = np.int32 if int(keys.max()) - kmin <= np.iinfo(np.int32).max else np.int64
    ks = (keys - kmin).astype(kdt, copy=False)[so]
    hit = np.zeros(n, dtype=bool)
    same = np.empty(n, dtype=bool)
    for d in range(1, min(ways, n - 1) + 1):
        m = n - d
        np.equal(ks[d:], ks[:-d], out=same[:m])
        same[:m] &= ss[d:] == ss[:-d]
        hit[d:] |= same[:m]
    out[so] = hit
    return out


def gather_estimate(backend, trace: Trace) -> ReplayEstimate:
    """The estimator before mask selection: index arrays and gathers."""
    config: SimConfig = backend.config
    ncores = config.core.num_cores
    stats = MemStats(num_cores=ncores)
    dram = DramModel(config.dram)
    dram.set_random_ranges(backend.dram_random_ranges)
    crossbar = Crossbar(config.interconnect, ncores)
    system = CacheSystem(config, stats, dram, crossbar)
    ctx = ReplayContext(
        config=config, stats=stats, dram=dram, crossbar=crossbar,
        system=system, ncores=ncores, ledger=LatencyLedger(ncores),
    )
    backend.prepare(ctx)

    prepass = precompute(trace, config, mapping=backend.prepass_mapping())
    routes = backend.route(ctx, trace, prepass)
    geometry = BankGeometry(num_banks=ncores,
                            line_bytes=config.l1.line_bytes)
    all_bank_keys = geometry.bank_keys_of(prepass.lines)
    all_banks = prepass.banks.astype(np.int64)

    est = ReplayEstimate(events=int(prepass.num_events))
    counts = np.bincount(routes, minlength=int(ROUTE_PIM) + 1)
    est.route_counts = {
        int(code): int(c) for code, c in enumerate(counts) if c
    }
    est.sp_plain = int(counts[ROUTE_SP_PLAIN])
    est.sp_rmw = int(counts[ROUTE_SP_RMW])
    est.offloads = int(counts[ROUTE_SP_OFFLOAD])
    est.srcbuf_hits = int(counts[ROUTE_SRCBUF_HIT])
    est.locked_events = int(counts[ROUTE_LOCKED])
    est.pim_events = int(counts[ROUTE_PIM])

    pim_bytes = est.pim_events * (backend.pim_bytes_per_op // 2)
    est.dram_read_bytes = est.dram_write_bytes = pim_bytes
    cache_idx = np.flatnonzero(routes == ROUTE_CACHE)
    est.cache_events = int(len(cache_idx))
    if not est.cache_events:
        return est

    lines = prepass.lines[cache_idx]
    l1_hit = _gather_predict(
        _slot_column(trace.core[cache_idx], lines, config.l1.num_sets, ncores),
        lines, config.l1.ways,
    )
    est.l1_hits = int(np.count_nonzero(l1_hit))
    est.l1_misses = est.cache_events - est.l1_hits

    miss_idx = cache_idx[~l1_hit]
    bank_keys = all_bank_keys[miss_idx]
    l2 = config.l2_per_core
    l2_hit = _gather_predict(
        _slot_column(all_banks[miss_idx], bank_keys, l2.num_sets, ncores),
        bank_keys, l2.ways,
    )
    est.l2_hits = int(np.count_nonzero(l2_hit))
    est.l2_misses = est.l1_misses - est.l2_hits

    line_bytes = config.l1.line_bytes
    est.dram_read_bytes += est.l2_misses * line_bytes
    l2_miss_writes = np.count_nonzero(prepass.write[miss_idx] & ~l2_hit)
    est.dram_write_bytes += int(l2_miss_writes) * line_bytes
    return est


def _workload(dataset, num_cores):
    graph, _ = load_dataset(dataset, scale=0.25, seed=3)
    result = run_algorithm("pagerank", graph, num_cores=num_cores,
                           chunk_size=32, trace=True)
    ranges = [(p.start_addr, p.region.end) for p in result.engine.vtx_props]
    bpv = result.engine.vtxprop_bytes_per_vertex()
    return result.trace, all_backend_factories(
        (result.trace, ranges, bpv, graph.num_vertices), num_cores)


def assert_same_estimate(factory, trace):
    got = estimate_replay(factory(), trace)
    want = gather_estimate(factory(), trace)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


def _hot_atomics(n, num_cores=16):
    """A trace of hot vtxProp atomics only (PIM or PISC takes all)."""
    rng = np.random.default_rng(5)
    verts = rng.integers(0, 64, n)
    return Trace(
        core=rng.integers(0, num_cores, n).astype(np.int16),
        addr=0x100000 + verts * 8,
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.full(n, int(AccessClass.VTXPROP), dtype=np.int8),
        flags=np.full(n, FLAG_ATOMIC, dtype=np.int8),
        vertex=verts,
    )


@pytest.fixture(scope="module", params=["wiki", "rCA"])
def dataset_workload(request):
    return _workload(request.param, num_cores=16)


class TestEstimateEquivalence:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_backends_on_datasets(self, dataset_workload, name):
        trace, factories = dataset_workload
        est = assert_same_estimate(factories[name], trace)
        assert est.cache_events > 0
        assert est.l2_hits + est.l2_misses == est.l1_misses

    @pytest.mark.parametrize("num_cores", [128, 256])
    @pytest.mark.parametrize("name", ["baseline", "omega", "dynamic"])
    def test_wide_core_counts(self, num_cores, name):
        trace, factories = _workload("wiki", num_cores)
        assert int(trace.core.max()) == num_cores - 1
        assert_same_estimate(factories[name], trace)

    @pytest.mark.parametrize("name", ["graphpim", "omega"])
    def test_no_cache_routed_events(self, name):
        """Every event is a hot vtxProp atomic: PIM or PISC takes all."""
        trace = _hot_atomics(400)
        factories = all_backend_factories((trace, [], 8, 64), 16)
        est = assert_same_estimate(factories[name], trace)
        assert est.cache_events == 0
        assert est.l1_hits == est.l2_hits == 0
        # PIM atomics move bytes in memory; PISC offloads move none.
        half = factories[name]().pim_bytes_per_op // 2
        assert est.dram_read_bytes == est.dram_write_bytes \
            == est.pim_events * half
        if name == "omega":
            assert est.dram_read_bytes == 0

    def test_all_pim_trace_dram_bytes_equal_replay(self):
        trace = _hot_atomics(400)
        factories = all_backend_factories((trace, [], 8, 64), 16)
        est = estimate_replay(factories["graphpim"](), trace)
        out = factories["graphpim"]().replay(trace).stats
        assert est.pim_events == trace.num_events
        assert est.dram_read_bytes == out.dram_read_bytes > 0
        assert est.dram_write_bytes == out.dram_write_bytes > 0

    def test_cache_lines_spanning_more_than_int32(self):
        """Mixed routes, with two cache-routed lines 2**32 apart: the
        estimator's int32 line offsets would make them one line."""
        num_cores = 16
        rng = np.random.default_rng(9)
        hot = rng.integers(0, 64, 200)
        far = np.int64(1) << 38
        far_addrs = 0x2000_0000 + (np.arange(200) % 2) * far
        trace = Trace(
            core=np.zeros(400, dtype=np.int16),
            addr=np.concatenate([0x100000 + hot * 8, far_addrs]),
            size=np.full(400, 8, dtype=np.int16),
            access_class=np.repeat(
                np.array([AccessClass.VTXPROP, AccessClass.NGRAPH],
                         dtype=np.int8), 200),
            flags=np.repeat(np.array([FLAG_ATOMIC, 0], dtype=np.int8),
                            200),
            vertex=np.concatenate([hot, np.full(200, -1)]),
        )
        factories = all_backend_factories((trace, [], 8, 64), num_cores)
        est = assert_same_estimate(factories["omega"], trace)
        assert 0 < est.cache_events < est.events
        assert est.l1_misses >= 2

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.int64)
        trace = Trace(
            core=np.zeros(0, dtype=np.int16), addr=empty,
            size=np.zeros(0, dtype=np.int16),
            access_class=np.zeros(0, dtype=np.int8),
            flags=np.zeros(0, dtype=np.int8), vertex=empty,
        )
        factories = all_backend_factories((trace, [], 8, 64), 16)
        for name in BACKENDS:
            assert assert_same_estimate(factories[name], trace).events == 0
