"""Cache-path reuse: runs sharing a store handle replay each stream once.

OMEGA and the locked cache route the same not-hot events to the same
cache configuration, and a re-swept cell routes the same stream again.
An unsampled, unattributed run looks its cache path up segment by
segment in the store handle's in-memory memo
(:attr:`TraceStore.cache_path_memo`), under keys chained from one
segment to the next. Reuse must be invisible: counters, DRAM end
state, manifests and attribution are bit-identical with reuse on
(shared handle) and off (a fresh handle per run); manifests differ only
in host time and ``replay.kernel.reused``.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import default_backend_config, run_backends, run_system
from repro.algorithms.registry import run_algorithm
from repro.graph.generators import rmat_graph
from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import Trace
from repro.memsim.backends import BaselineBackend
from repro.memsim.cachestate import CacheSystem
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.stats import MemStats
from repro.store import ResultMemo, TraceStore

BACKENDS = ("baseline", "omega", "locked", "graphpim", "dynamic")
NCORES = 4

#: (page policy, topology) variants of every backend's default config.
VARIANTS = [
    ("closed", "crossbar"), ("open", "crossbar"), ("hybrid", "crossbar"),
    ("closed", "mesh"), ("open", "mesh"), ("hybrid", "mesh"),
]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=21)


def _config(name, policy, topology):
    config = default_backend_config(name, num_cores=NCORES)
    return dataclasses.replace(
        config,
        dram=dataclasses.replace(config.dram, page_policy=policy),
        interconnect=dataclasses.replace(
            config.interconnect, topology=topology
        ),
    )


def _observed(report):
    """Every simulated quantity of a report, host time and reuse aside."""
    manifest = report.manifest()
    replay = manifest.pop("replay")
    kernel = dict(replay["kernel"])
    kernel.pop("reused")
    out = report.replay
    return {
        "manifest": manifest,
        "kernel": kernel,
        "dram": (out.dram.row_hits, out.dram.row_misses,
                 list(out.dram._open_rows)),
    }


@pytest.mark.parametrize("policy,topology", VARIANTS)
def test_reuse_is_bit_identical(graph, tmp_path, policy, topology):
    configs = {name: _config(name, policy, topology) for name in BACKENDS}
    request = RunRequest("pagerank", num_cores=NCORES)
    shared = RunContext(store=TraceStore(tmp_path))
    first = run_backends(graph, request, BACKENDS, configs, context=shared)
    again = run_backends(graph, request, BACKENDS, configs, context=shared)
    for name in BACKENDS:
        # Reuse off: a fresh handle on the same root (the trace is a
        # store hit either way, so trace_cache blocks match too).
        off = run_system(
            graph, dataclasses.replace(request, backend=name),
            configs[name], context=RunContext(store=TraceStore(tmp_path)),
        )
        assert off.replay.kernel["reused"] == 0
        kernel = again[name].replay.kernel
        assert kernel["reused"] == kernel["events"] > 0, name
        assert kernel["screened"] + kernel["serialized_events"] \
            == kernel["events"]
        assert _observed(again[name]) == _observed(off), name
        cold = _observed(first[name])
        cold["manifest"].pop("trace_cache")  # generated, not loaded
        off_doc = _observed(off)
        off_doc["manifest"].pop("trace_cache")
        assert cold == off_doc, name
    # Locked routes exactly OMEGA's cache stream; under hybrid their
    # DRAM random ranges differ (OMEGA's are the vtxProp ranges), so
    # the digest differs and locked replays its own.
    locked = first["locked"].replay.kernel["reused"]
    assert (locked > 0) == (policy != "hybrid")


def test_streamed_run_reuses_the_memo(graph, tmp_path):
    """A streamed run looks each segment up: locked reuses OMEGA's
    stream segment by segment, and both match memo-off runs."""
    request = RunRequest("pagerank", num_cores=NCORES)
    names = ("omega", "locked")
    reports = run_backends(
        graph, request, names,
        context=RunContext(store=TraceStore(tmp_path), segment_events=2000),
    )
    for name in names:
        off = run_system(
            graph, dataclasses.replace(request, backend=name),
            context=RunContext(store=TraceStore(tmp_path),
                               segment_events=2000),
        )
        assert off.num_segments > 1
        assert off.replay.kernel["reused"] == 0
        got, want = _observed(reports[name]), _observed(off)
        for doc in (got, want):
            doc["manifest"].pop("trace_cache")
        assert got == want, name
    kernel = reports["locked"].replay.kernel
    assert kernel["reused"] == kernel["events"] > 0
    assert kernel["batches"] == reports["locked"].num_segments


def _diverging_traces(graph, at):
    """A PageRank trace, and a copy whose events from ``at`` on run on
    the next core over."""
    trace = run_algorithm("pagerank", graph, num_cores=NCORES,
                          trace=True).trace
    core = trace.core.copy()
    core[at:] = (core[at:] + 1) % NCORES
    cols = {c: getattr(trace, c) for c in ("addr", "size", "access_class",
                                           "flags", "vertex")}
    return trace, Trace(core=core, barriers=trace.barriers,
                        regions=trace.regions, **cols)


def test_partial_chain_reuses_the_shared_prefix(graph):
    """Two streams share segment 0 and then diverge: the second finds
    segment 0, misses segment 1, replays segment 0 again to rebuild the
    cache state, and matches a memo-off replay."""
    seg = 2000
    first, second = _diverging_traces(graph, seg)
    assert first.num_events > 2 * seg
    config = SimConfig.scaled_baseline(num_cores=NCORES)
    memo = ResultMemo(64)

    def replay(trace, memo):
        backend = BaselineBackend(config)
        backend.cache_memo = memo
        return backend.replay(SegmentedTrace.from_trace(trace, seg))

    replay(first, memo)
    out = replay(second, memo)
    off = replay(second, None)
    # Baseline routes every event to the cache path.
    assert out.kernel["reused"] == seg
    assert memo.hits == 1
    assert out.stats == off.stats
    assert (out.dram.row_hits, out.dram.row_misses,
            list(out.dram._open_rows)) == (off.dram.row_hits,
                                           off.dram.row_misses,
                                           list(off.dram._open_rows))
    off.kernel["reused"] = seg
    assert out.kernel == off.kernel


def test_attribution_bypasses_the_memo(graph, tmp_path):
    store = TraceStore(tmp_path)
    request = RunRequest("pagerank", num_cores=NCORES)
    plain = run_backends(graph, request, BACKENDS,
                         context=RunContext(store=store))
    memo_size = len(store.cache_path_memo)
    for context in (
        RunContext(store=store, attribution=True),
        RunContext(store=store, segment_events=2000, attribution=True),
    ):
        hits = store.cache_path_memo.hits
        reports = run_backends(graph, request, BACKENDS, context=context)
        assert store.cache_path_memo.hits == hits
        for name in BACKENDS:
            assert reports[name].replay.kernel["reused"] == 0
            assert reports[name].stats == plain[name].stats, name
    # Attributed runs with and without a populated memo agree.
    attributed = run_backends(
        graph, request, BACKENDS,
        context=RunContext(store=TraceStore(tmp_path), attribution=True),
    )
    again = run_backends(graph, request, BACKENDS,
                         context=RunContext(store=store, attribution=True))
    for name in BACKENDS:
        assert again[name].attribution == attributed[name].attribution
    assert len(store.cache_path_memo) == memo_size


def test_scalar_cache_run_misses_the_memo(graph, tmp_path):
    store = TraceStore(tmp_path)
    request = RunRequest("pagerank", backend="omega", num_cores=NCORES)
    kernel = run_system(graph, request, context=RunContext(store=store))
    memo = store.cache_path_memo
    hits, size = memo.hits, len(memo)
    scalar = run_system(graph, request,
                        context=RunContext(store=store, scalar_cache=True))
    assert scalar.replay.kernel["mode"] == "scalar"
    assert scalar.replay.kernel["reused"] == 0
    assert (memo.hits, len(memo)) == (hits, size)
    assert scalar.stats == kernel.stats


def test_concurrent_omega_and_locked_share_one_store(graph, tmp_path):
    """Two threads replaying omega and locked against one store handle
    (so the second to finish may reuse the first's result) report the
    counters of isolated runs."""
    request = RunRequest("pagerank", num_cores=NCORES)
    alone = {
        name: run_system(
            graph, dataclasses.replace(request, backend=name),
            context=RunContext(store=TraceStore(tmp_path)),
        ).stats
        for name in ("omega", "locked")
    }
    for _ in range(3):
        context = RunContext(store=TraceStore(tmp_path))
        results, errors = {}, []

        def replay(name, context=context, results=results):
            try:
                results[name] = run_system(
                    graph, dataclasses.replace(request, backend=name),
                    context=context,
                ).stats
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=replay, args=(name,))
                   for name in ("omega", "locked")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == alone


# -- memo-key tampers, on the CacheSystem directly -----------------------

def _batch(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    cores = rng.integers(0, NCORES, n)
    addrs = rng.integers(0, 1 << 16, n) * 8
    writes = rng.random(n) < 0.3
    atomics = writes & (rng.random(n) < 0.5)
    return cores, addrs, writes, atomics


def _replay(config, batch, memo=None):
    return _replay_batches(config, [batch], memo)


def _replay_batches(config, batches, memo=None):
    """Replay ``batches`` in order on one fresh system, as one run."""
    stats = MemStats(num_cores=NCORES)
    system = CacheSystem(
        config, stats, DramModel(config.dram),
        Crossbar(config.interconnect, NCORES), memo=memo,
    )
    mem, serial = [0.0] * NCORES, [0.0] * NCORES
    for cores, addrs, writes, atomics in batches:
        lines = addrs >> system.line_bits
        system.replay_cache_path(
            cores, addrs, lines, lines & system.bank_mask, writes, atomics,
            mem, serial,
        )
    system.finish(mem, serial)
    return system, (dataclasses.asdict(stats), mem, serial,
                    list(system.dram._open_rows))


def _open_page():
    config = SimConfig.scaled_baseline(num_cores=NCORES)
    return dataclasses.replace(
        config, dram=dataclasses.replace(config.dram, page_policy="open")
    )


def test_identical_batch_hits_the_memo():
    config, memo = _open_page(), ResultMemo(8)
    _, expected = _replay(config, _batch(), memo)
    system, got = _replay(config, _batch(), memo)
    assert memo.hits == 1
    assert system.kernel_telemetry.reused == len(_batch()[0])
    assert got == expected


@pytest.mark.parametrize("ncores", [4, 16, 128])
def test_delta_holds_fourteen_counters_at_any_core_count(ncores):
    # The MemStats fields the cache path moves and DRAM's row counters:
    # nothing per core or per bank.
    config = dataclasses.replace(
        SimConfig.scaled_baseline(num_cores=ncores), dram=_open_page().dram
    )
    memo = ResultMemo(8)
    system = CacheSystem(
        config, MemStats(num_cores=ncores), DramModel(config.dram),
        Crossbar(config.interconnect, ncores), memo=memo,
    )
    cores, addrs, writes, atomics = _batch()
    lines = addrs >> system.line_bits
    system.replay_cache_path(
        cores, addrs, lines, lines & system.bank_mask, writes, atomics,
        [0.0] * ncores, [0.0] * ncores,
    )
    delta = memo.get(system.memo_key(cores, addrs, writes, atomics))
    assert len(delta.counters) == 14
    assert delta.counters[-2:] == (system.dram.row_hits,
                                   system.dram.row_misses)
    assert delta.counters[-2] > 0


@pytest.mark.parametrize("column", ["cores", "addrs", "writes", "atomics"])
def test_one_event_change_misses_the_memo(column):
    config, memo = _open_page(), ResultMemo(8)
    _replay(config, _batch(), memo)
    cores, addrs, writes, atomics = _batch()
    if column == "cores":
        cores[100] = (cores[100] + 1) % NCORES
    elif column == "addrs":
        addrs[100] += 64
    elif column == "writes":
        writes[100] = not writes[100]
    else:
        atomics[100] = not atomics[100]
    tampered = (cores, addrs, writes, atomics)
    system, got = _replay(config, tampered, memo)
    assert memo.hits == 0 and system.kernel_telemetry.reused == 0
    assert got == _replay(config, tampered)[1]


def _tampered_configs():
    config = _open_page()
    r = dataclasses.replace
    return {
        "l1": r(config, l1=r(config.l1, latency_cycles=3)),
        "l2": r(config, l2_per_core=r(config.l2_per_core, ways=2)),
        "dram": r(config, dram=r(config.dram, row_hit_cycles=61)),
        "interconnect": r(config, interconnect=r(
            config.interconnect, remote_latency_cycles=18)),
        "atomic split": r(config, core=r(
            config.core, atomic_serialization=0.4)),
        "atomic stall": r(config, core=r(
            config.core, atomic_stall_cycles=5)),
    }


@pytest.mark.parametrize("field", sorted(_tampered_configs()))
def test_changed_config_field_misses_the_memo(field):
    memo = ResultMemo(8)
    _replay(_open_page(), _batch(), memo)
    config = _tampered_configs()[field]
    system, got = _replay(config, _batch(), memo)
    assert memo.hits == 0 and system.kernel_telemetry.reused == 0
    assert got == _replay(config, _batch())[1]


def test_batch_key_chains_on_the_stream_before_it():
    """A batch's key covers every batch before it: the second batch of
    one run is a miss as the first batch of another."""
    config, memo = _open_page(), ResultMemo(8)
    b0, b1 = _batch(seed=5), _batch(seed=6)
    _replay_batches(config, [b0, b1], memo)
    system, got = _replay_batches(config, [b1], memo)
    assert memo.hits == 0 and system.kernel_telemetry.reused == 0
    assert got == _replay_batches(config, [b1])[1]


def test_whole_run_hit_applies_the_stored_deltas_in_order():
    config, memo = _open_page(), ResultMemo(8)
    batches = [_batch(seed=s) for s in (5, 6, 7)]
    _, expected = _replay_batches(config, batches, memo)
    system, got = _replay_batches(config, batches, memo)
    assert memo.hits == 3
    assert system.kernel_telemetry.reused == 3 * len(batches[0][0])
    assert system.kernel_telemetry.batches == 3
    assert got == expected


def test_memo_is_count_bounded():
    memo = ResultMemo(2)
    for key in "abc":
        memo.put(key, key)
    assert len(memo) == 2 and memo.get("a") is None and memo.get("c") == "c"
