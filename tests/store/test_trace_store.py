"""Tests for the persistent content-addressed trace store."""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_system
from repro.graph.generators import rmat_graph
from repro.ligra.segments import SegmentedTrace
from repro.ligra.trace import AccessClass, TraceBuilder
from repro.obs import MetricsRegistry, use_registry
from repro.obs.manifest_diff import diff_manifests
from repro.store import (
    DEFAULT_CAPACITY_BYTES,
    TraceStore,
    normalize_kwargs,
    trace_key,
)

from tests.ligra.test_segments import rewrite_member


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=21)


@pytest.fixture(scope="module")
def omega_cfg():
    return SimConfig.scaled_omega(num_cores=4)


def _toy_trace(n=64, seed=0):
    rng = np.random.default_rng(seed)
    tb = TraceBuilder()
    tb.append(0, rng.integers(0, 1 << 20, size=n), 8, AccessClass.VTXPROP,
              write=True, vertex=rng.integers(0, 100, size=n))
    return tb.build()


class TestTraceKey:
    """Every key component must be load-bearing: changing any one of
    graph content, kwargs, cores, chunk size, or reorder recipe must
    change the key; identical inputs must reproduce it."""

    def _key(self, graph, **over):
        params = dict(
            algorithm="pagerank", num_cores=4, chunk_size=32,
            reorder="nth-element/in", alg_kwargs={"iterations": 3},
        )
        params.update(over)
        return trace_key(graph, **params)

    def test_identical_inputs_hit(self, graph):
        assert self._key(graph) == self._key(graph)

    def test_equal_graph_content_hits_across_objects(self):
        # Content addressing: two separately built but identical
        # graphs share a key (dataset name is irrelevant).
        a = rmat_graph(7, edge_factor=4, seed=3)
        b = rmat_graph(7, edge_factor=4, seed=3)
        assert a is not b
        assert self._key(a) == self._key(b)

    def test_graph_content_changes_key(self, graph):
        other = rmat_graph(8, edge_factor=8, seed=22)
        assert self._key(graph) != self._key(other)

    def test_algorithm_changes_key(self, graph):
        assert self._key(graph) != self._key(graph, algorithm="bfs")

    def test_kwargs_change_key(self, graph):
        assert self._key(graph) != self._key(
            graph, alg_kwargs={"iterations": 4}
        )

    def test_cores_change_key(self, graph):
        assert self._key(graph) != self._key(graph, num_cores=8)

    def test_chunk_changes_key(self, graph):
        assert self._key(graph) != self._key(graph, chunk_size=64)

    def test_reorder_changes_key(self, graph):
        assert self._key(graph) != self._key(graph, reorder=None)

    def test_numpy_scalar_kwargs_canonicalized(self, graph):
        assert self._key(graph, alg_kwargs={"iterations": 3}) == self._key(
            graph, alg_kwargs={"iterations": np.int64(3)}
        )

    def test_uncacheable_kwargs_bypass(self, graph):
        assert self._key(graph, alg_kwargs={"cb": lambda: None}) is None
        assert normalize_kwargs({"arr": np.zeros(3)}) is None


class TestStoreRoundtrip:
    def test_store_then_load(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace()
        store.store("k1", tr, {"num_events": tr.num_events})
        entry = store.load("k1")
        assert entry is not None
        loaded, meta = entry
        np.testing.assert_array_equal(loaded.addr, tr.addr)
        assert meta["num_events"] == tr.num_events
        assert meta["key"] == "k1"

    def test_missing_key_is_miss(self, tmp_path):
        assert TraceStore(tmp_path).load("nope") is None

    def test_corrupt_trace_discarded(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace()
        store.store("k1", tr, {"num_events": tr.num_events})
        # Truncate the archive: the entry must read as a miss and be
        # removed so the next store() can rewrite it.
        data = store.trace_path("k1").read_bytes()
        store.trace_path("k1").write_bytes(data[: len(data) // 2])
        assert store.load("k1") is None
        assert not store.trace_path("k1").exists()
        assert not store.meta_path("k1").exists()

    def test_damaged_segment_member_discarded(self, tmp_path):
        # Bytes damaged in place inside one segment member: the zip
        # directory and the index still read, only materializing the
        # columns fails its CRC check.
        store = TraceStore(tmp_path)
        tr = _toy_trace(n=64)
        store.store("k1", tr, {"num_events": tr.num_events},
                    segment_events=16)
        path = store.trace_path("k1")
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("seg00002.addr.npy")
        data = bytearray(path.read_bytes())
        start = info.header_offset
        name_len = int.from_bytes(data[start + 26:start + 28], "little")
        extra_len = int.from_bytes(data[start + 28:start + 30], "little")
        end = start + 30 + name_len + extra_len + info.compress_size
        data[end - 8:end] = bytes(b ^ 0xFF for b in data[end - 8:end])
        path.write_bytes(bytes(data))
        with SegmentedTrace.open(path) as segments:
            assert segments.num_events == tr.num_events  # index intact
        registry = MetricsRegistry()
        with use_registry(registry):
            assert store.load("k1") is None
        assert registry.counter("trace_store.corrupt").value == 1
        assert registry.counter("trace_store.misses").value == 1
        assert not path.exists()
        assert not store.meta_path("k1").exists()

    def test_malformed_sidecar_discarded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.store("k1", _toy_trace(), {})
        store.meta_path("k1").write_text("{not json")
        assert store.load("k1") is None

    def test_sidecar_version_mismatch_discarded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.store("k1", _toy_trace(), {})
        meta = json.loads(store.meta_path("k1").read_text())
        meta["sidecar_version"] = 999
        store.meta_path("k1").write_text(json.dumps(meta))
        assert store.load("k1") is None

    def test_event_count_mismatch_discarded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.store("k1", _toy_trace(), {})
        meta = json.loads(store.meta_path("k1").read_text())
        meta["num_events"] = 7
        store.meta_path("k1").write_text(json.dumps(meta))
        assert store.load("k1") is None


class TestSegmentedEntries:
    """Entries are segmented archives; warm hits can stream them."""

    def test_stored_entry_is_a_segmented_archive(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace()
        store.store("k1", tr, {"num_events": tr.num_events})
        with np.load(store.trace_path("k1")) as data:
            assert "segment_bounds" in data.files
            assert int(data["interleaved"]) == 1

    def test_open_segments_streams_warm_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace(n=64)
        store.store("k1", tr, {"num_events": tr.num_events},
                    segment_events=16)
        entry = store.open_segments("k1")
        assert entry is not None
        segments, meta = entry
        assert meta["key"] == "k1"
        assert segments.num_segments == 4
        np.testing.assert_array_equal(
            segments.materialize().addr, tr.addr
        )
        segments.close()

    def test_ragged_segment_member_discarded(self, tmp_path):
        # The zip and the index are intact; one segment member holds 5
        # events where segment_bounds promise 16.
        store = TraceStore(tmp_path)
        tr = _toy_trace(n=64)
        store.store("k1", tr, {"num_events": tr.num_events},
                    segment_events=16)
        rewrite_member(store.trace_path("k1"), "seg00000.addr.npy",
                       np.arange(5, dtype=np.int64))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert store.load("k1") is None
        assert registry.counter("trace_store.corrupt").value == 1
        assert registry.counter("trace_store.misses").value == 1
        assert not store.trace_path("k1").exists()
        assert not store.meta_path("k1").exists()

    def test_open_segments_miss_and_touch(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.open_segments("nope") is None

    def test_open_segments_discards_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace()
        store.store("k1", tr, {"num_events": tr.num_events})
        data = store.trace_path("k1").read_bytes()
        store.trace_path("k1").write_bytes(data[: len(data) // 2])
        assert store.open_segments("k1") is None
        assert not store.trace_path("k1").exists()

    def test_open_segments_discards_event_count_mismatch(self, tmp_path):
        store = TraceStore(tmp_path)
        store.store("k1", _toy_trace(), {})
        meta = json.loads(store.meta_path("k1").read_text())
        meta["num_events"] = 7
        store.meta_path("k1").write_text(json.dumps(meta))
        assert store.open_segments("k1") is None

    def test_load_rehydrates_segmented_entry(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace(n=64)
        store.store("k1", tr, {"num_events": tr.num_events},
                    segment_events=16)
        entry = store.load("k1")
        assert entry is not None
        loaded, _ = entry
        np.testing.assert_array_equal(loaded.addr, tr.addr)


class TestAdopt:
    def _spool(self, tmp_path, tr, name="spool.npz", step=16):
        from repro.ligra.segments import SegmentedTrace

        path = tmp_path / name
        SegmentedTrace.from_trace(tr, step).save(path)
        return path

    def test_adopt_moves_archive_into_place(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        tr = _toy_trace(n=64)
        spool = self._spool(tmp_path, tr)
        store.adopt("k1", spool, {"num_events": tr.num_events})
        assert not spool.exists()
        entry = store.open_segments("k1")
        assert entry is not None
        segments, meta = entry
        assert meta["num_events"] == tr.num_events
        np.testing.assert_array_equal(
            segments.materialize().addr, tr.addr
        )
        segments.close()

    def test_adopt_requires_num_events(self, tmp_path):
        from repro.errors import TraceError

        store = TraceStore(tmp_path / "store")
        tr = _toy_trace()
        spool = self._spool(tmp_path, tr)
        with pytest.raises(TraceError, match="num_events"):
            store.adopt("k1", spool, {})

    def test_adopted_handle_survives_the_rename(self, tmp_path):
        """POSIX: a handle opened on the spool keeps reading after
        adopt() renames (or even unlinks) the path under it."""
        from repro.ligra.segments import SegmentedTrace

        store = TraceStore(tmp_path / "store")
        tr = _toy_trace(n=64)
        spool = self._spool(tmp_path, tr)
        handle = SegmentedTrace.open(spool)
        store.adopt("k1", spool, {"num_events": tr.num_events})
        np.testing.assert_array_equal(
            handle.materialize().addr, tr.addr
        )
        handle.close()


class TestOrphanCollection:
    def test_aged_tmp_files_are_collected(self, tmp_path):
        from repro.store.store import ORPHAN_TMP_AGE_SECONDS

        store = TraceStore(tmp_path)
        orphan = tmp_path / ".deadbeef.tmp.npz"
        orphan.write_bytes(b"junk")
        stale = 1_000_000
        os.utime(orphan, (stale, stale))
        fresh = tmp_path / ".cafef00d.tmp.npz"
        fresh.write_bytes(b"junk")
        assert ORPHAN_TMP_AGE_SECONDS > 60
        store.evict()
        assert not orphan.exists()
        assert fresh.exists()  # in-flight writes stay untouched

    def test_visible_entries_never_match_the_orphan_glob(self, tmp_path):
        store = TraceStore(tmp_path)
        tr = _toy_trace()
        store.store("k1", tr, {"num_events": tr.num_events})
        stale = 1_000_000
        for path in (store.trace_path("k1"), store.meta_path("k1")):
            os.utime(path, (stale, stale))
        store.evict()
        assert store.load("k1") is not None


class TestEviction:
    def _fill(self, store, keys):
        for i, key in enumerate(keys):
            store.store(key, _toy_trace(seed=i), {})

    def test_lru_evicts_oldest(self, tmp_path):
        store = TraceStore(tmp_path)
        self._fill(store, ["a", "b", "c"])
        # Age the entries explicitly (mtime resolution is too coarse
        # to rely on insertion timing).
        for age, key in enumerate(["a", "b", "c"]):
            stamp = 1_000_000 + age
            os.utime(store.trace_path(key), (stamp, stamp))
            os.utime(store.meta_path(key), (stamp, stamp))
        entry = store.entries()[0]
        assert entry.key == "a"
        store.capacity_bytes = store.total_bytes() - 1
        assert store.evict() == 1
        assert store.load("a") is None
        assert store.load("b") is not None

    def test_load_refreshes_recency(self, tmp_path):
        store = TraceStore(tmp_path)
        self._fill(store, ["a", "b"])
        for age, key in enumerate(["a", "b"]):
            stamp = 1_000_000 + age
            os.utime(store.trace_path(key), (stamp, stamp))
            os.utime(store.meta_path(key), (stamp, stamp))
        assert store.load("a") is not None  # touches "a" to now
        store.capacity_bytes = store.total_bytes() - 1
        store.evict()
        assert store.load("a") is not None
        assert store.load("b") is None

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        self._fill(store, ["a", "b"])
        store.clear()
        assert len(store) == 0


class TestAmbientStore:
    """The store ``RunContext.from_env`` resolves from its ``cache``
    selector and the environment."""

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert RunContext.from_env().store is None

    def test_env_var_names_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = RunContext.from_env().store
        assert store is not None
        assert store.root == tmp_path

    def test_resolve_semantics(self, tmp_path):
        store = TraceStore(tmp_path)
        env = {"REPRO_CACHE_DIR": str(tmp_path / "env")}
        resolve = lambda cache: RunContext.from_env(  # noqa: E731
            cache=cache, environ=env
        ).store
        assert resolve(False) is None
        assert resolve(store) is store
        assert resolve(str(tmp_path)).root == tmp_path
        assert resolve(None).root == tmp_path / "env"
        assert resolve(True).root == tmp_path / "env"

    def test_capacity_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_CAPACITY_MB", "2")
        two_mb = 2 * 1024 * 1024
        assert RunContext.from_env(cache=tmp_path).store.capacity_bytes \
            == two_mb
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert RunContext.from_env().store.capacity_bytes == two_mb
        # A directly built store reads no environment.
        assert TraceStore(tmp_path).capacity_bytes == DEFAULT_CAPACITY_BYTES

    def test_zero_capacity_rejected(self, tmp_path):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            TraceStore(tmp_path, capacity_bytes=0)


class TestRunSystemIntegration:
    def test_warm_hit_is_bit_identical(self, graph, omega_cfg, tmp_path):
        store = TraceStore(tmp_path)
        cold = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        assert cold.trace_cache == {
            "enabled": True, "hit": False,
            "key": cold.trace_cache["key"],
        }
        assert len(store) == 1
        warm = run_system(
            graph, RunRequest("pagerank", dataset="t"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        assert warm.trace_cache["hit"] is True
        assert warm.trace_cache["key"] == cold.trace_cache["key"]
        assert warm.stats.as_dict() == cold.stats.as_dict()
        assert warm.cycles == cold.cycles
        assert warm.energy.as_dict() == cold.energy.as_dict()
        assert warm.trace_events == cold.trace_events
        assert warm.trace_bytes == cold.trace_bytes
        assert warm.hot_capacity == cold.hot_capacity

    def test_warm_vs_cold_manifest_diff_zero_tolerance(
        self, graph, omega_cfg, tmp_path
    ):
        store = TraceStore(tmp_path)
        cold = run_system(
            graph, RunRequest("bfs"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        warm = run_system(
            graph, RunRequest("bfs"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        result = diff_manifests(cold.manifest(), warm.manifest(),
                                tolerance=0.0)
        assert result.ok, result.regressions

    def test_no_cache_matches_cached_counters(self, graph, omega_cfg,
                                              tmp_path):
        cached = run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=TraceStore(tmp_path)),
        )
        plain = run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=False),
        )
        assert plain.trace_cache == {
            "enabled": False, "hit": False, "key": None,
        }
        assert plain.stats.as_dict() == cached.stats.as_dict()

    def test_corrupt_entry_falls_back_to_regeneration(
        self, graph, omega_cfg, tmp_path
    ):
        store = TraceStore(tmp_path)
        cold = run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        key = cold.trace_cache["key"]
        trace_file = store.trace_path(key)
        trace_file.write_bytes(trace_file.read_bytes()[:100])
        again = run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        assert again.trace_cache["hit"] is False  # regenerated
        assert again.stats.as_dict() == cold.stats.as_dict()
        # ... and the rewrite made the store warm again.
        third = run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        assert third.trace_cache["hit"] is True

    def test_different_backends_share_reordered_trace(
        self, graph, omega_cfg, tmp_path
    ):
        store = TraceStore(tmp_path)
        run_system(
            graph, RunRequest("pagerank"), omega_cfg,
            context=RunContext.from_env(cache=store),
        )
        locked = run_system(
            graph, RunRequest("pagerank", backend="locked"),
            SimConfig.scaled_omega(num_cores=4, use_pisc=False,
                                   use_source_buffer=False),
            context=RunContext.from_env(cache=store),
        )
        # locked reorders too and has the same cores/chunk -> same trace.
        assert locked.trace_cache["hit"] is True

    def test_numpy_scalar_kwargs_share_entry(self, graph, omega_cfg,
                                             tmp_path):
        store = TraceStore(tmp_path)
        run_system(
            graph, RunRequest("pagerank", alg_kwargs={"max_iters": 1}),
            omega_cfg, context=RunContext.from_env(cache=store),
        )
        rep = run_system(
            graph,
            RunRequest("pagerank", alg_kwargs={"max_iters": np.int64(1)}),
            omega_cfg, context=RunContext.from_env(cache=store),
        )
        assert rep.trace_cache["hit"] is True

    def test_uncacheable_kwargs_disable_cache(self, graph, omega_cfg,
                                              tmp_path):
        store = TraceStore(tmp_path)
        # A 0-d array is a working tolerance value but has no canonical
        # JSON form, so the run must bypass the cache, not crash.
        rep = run_system(
            graph,
            RunRequest("pagerank", alg_kwargs={"tolerance": np.array(0.0)}),
            omega_cfg, context=RunContext.from_env(cache=store),
        )
        assert rep.trace_cache == {
            "enabled": False, "hit": False, "key": None,
        }
        assert len(store) == 0
