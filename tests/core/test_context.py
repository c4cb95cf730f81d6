"""RunContext/RunRequest: env resolution, specs, thread isolation."""

import threading

import pytest

from repro.core.context import (
    RunContext,
    RunRequest,
    attribution_from_env,
    cache_capacity_from_env,
    ledger_path_from_env,
    scalar_cache_from_env,
    segment_events_from_env,
)
from repro.errors import SimulationError
from repro.graph.generators import rmat_graph
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.store import TraceStore

from tests.serve.test_concurrency import Window


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=21)


class TestEnvHelpers:
    def test_capacity_megabytes_to_bytes(self):
        assert cache_capacity_from_env({"REPRO_CACHE_CAPACITY_MB": "2"}) \
            == 2 * 1024 * 1024
        assert cache_capacity_from_env({}) is None

    def test_segment_events_parsing(self):
        assert segment_events_from_env({"REPRO_SEGMENT_EVENTS": "4096"}) \
            == 4096
        assert segment_events_from_env({"REPRO_SEGMENT_EVENTS": "0"}) is None
        assert segment_events_from_env({}) is None
        with pytest.raises(SimulationError):
            segment_events_from_env({"REPRO_SEGMENT_EVENTS": "lots"})

    def test_attribution_truthiness(self):
        for value in ("1", "true", "on", "YES"):
            assert attribution_from_env({"REPRO_ATTRIBUTION": value})
        for value in ("", "0", "off", "no"):
            assert not attribution_from_env({"REPRO_ATTRIBUTION": value})

    def test_ledger_empty_string_disables(self):
        assert ledger_path_from_env({"REPRO_LEDGER": ""}) is None
        assert ledger_path_from_env({"REPRO_LEDGER": "runs.jsonl"}) \
            == "runs.jsonl"

    def test_scalar_cache_is_exactly_one(self):
        assert scalar_cache_from_env({"REPRO_SCALAR_CACHE": "1"})
        assert not scalar_cache_from_env({"REPRO_SCALAR_CACHE": "true"})


class TestRunContext:
    def test_from_env_reads_the_given_mapping(self, tmp_path):
        ctx = RunContext.from_env(environ={
            "REPRO_CACHE_DIR": str(tmp_path / "store"),
            "REPRO_SEGMENT_EVENTS": "8192",
            "REPRO_ATTRIBUTION": "1",
            "REPRO_LEDGER": "runs.jsonl",
            "REPRO_SCALAR_CACHE": "1",
        })
        assert isinstance(ctx.store, TraceStore)
        assert ctx.segment_events == 8192
        assert ctx.attribution is True
        assert ctx.ledger_path == "runs.jsonl"
        assert ctx.scalar_cache is True

    def test_explicit_arguments_beat_environment(self, tmp_path):
        ctx = RunContext.from_env(
            cache=False, segment_events=16, attribution=False,
            environ={
                "REPRO_CACHE_DIR": str(tmp_path),
                "REPRO_SEGMENT_EVENTS": "8192",
                "REPRO_ATTRIBUTION": "1",
            },
        )
        assert ctx.store is None
        assert ctx.segment_events == 16
        assert ctx.attribution is False

    def test_from_env_capacity_comes_from_the_mapping(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_CACHE_CAPACITY_MB", raising=False)
        env = {
            "REPRO_CACHE_DIR": str(tmp_path / "env"),
            "REPRO_CACHE_CAPACITY_MB": "1",
        }
        from_dir = RunContext.from_env(environ=env).store
        from_path = RunContext.from_env(
            cache=tmp_path / "explicit", environ=env
        ).store
        assert from_dir.capacity_bytes == 1024 * 1024
        assert from_path.capacity_bytes == 1024 * 1024

    def test_spec_round_trip(self, tmp_path):
        store = TraceStore(tmp_path / "s", capacity_bytes=123456)
        ctx = RunContext(
            store=store, segment_events=4096, attribution=True,
            ledger_path="runs.jsonl", scalar_cache=True,
        )
        back = RunContext.from_spec(ctx.to_spec())
        assert str(back.store.root) == str(store.root)
        assert back.store.capacity_bytes == 123456
        assert back.segment_events == 4096
        assert back.attribution is True
        assert back.ledger_path == "runs.jsonl"
        assert back.scalar_cache is True

    def test_with_options(self):
        ctx = RunContext()
        assert ctx.with_options(attribution=True).attribution is True
        assert ctx.attribution is False  # frozen original untouched


class TestRunRequest:
    def test_request_dict_round_trip(self):
        req = RunRequest(
            algorithm="bfs", backend="omega", dataset="lj",
            num_cores=8, alg_kwargs={"source": 3},
        )
        back = RunRequest.from_dict(req.to_dict())
        assert back == req
        with pytest.raises(SimulationError):
            RunRequest.from_dict({"dataset": "lj"})  # no algorithm

    def test_config_derived_from_backend_when_omitted(self, graph):
        from repro.core.system import run_system

        rep = run_system(
            graph,
            request=RunRequest(
                algorithm="pagerank", backend="omega", num_cores=4
            ),
            context=RunContext(),
        )
        assert rep.hot_capacity > 0  # an OMEGA config was built


#: Manifest blocks/fields that legitimately differ between hosts or
#: runs of identical simulated work (timings, RSS, cache hit state).
_HOST_FIELDS = ("telemetry", "trace_cache")


def _strip_host_fields(manifest):
    doc = {k: v for k, v in manifest.items() if k not in _HOST_FIELDS}
    replay = dict(doc.get("replay") or {})
    for key in ("seconds", "events_per_second", "peak_rss_bytes"):
        replay.pop(key, None)
    doc["replay"] = replay
    return doc


class TestConcurrentContexts:
    def test_two_stores_two_threads_no_interleaving(self, graph, tmp_path):
        """Two concurrent run_system threads on *different* stores must
        produce bit-identical manifests to their serial equivalents and
        populate only their own store — the regression that motivated
        RunContext (a process-global store would interleave)."""
        from repro.core.system import run_system

        store_a = TraceStore(tmp_path / "a")
        store_b = TraceStore(tmp_path / "b")
        ctx_a = RunContext(store=store_a)
        ctx_b = RunContext(store=store_b)
        req_a = RunRequest(algorithm="pagerank", dataset="ta")
        req_b = RunRequest(algorithm="bfs", dataset="tb")

        # Serial references, on throwaway stores with identical layout.
        ref_a = run_system(
            graph, request=req_a,
            context=RunContext(store=TraceStore(tmp_path / "ref_a")),
        ).manifest()
        ref_b = run_system(
            graph, request=req_b,
            context=RunContext(store=TraceStore(tmp_path / "ref_b")),
        ).manifest()

        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def worker(name, request, context):
            try:
                barrier.wait(timeout=30)
                report = run_system(graph, request=request, context=context)
                results[name] = report.manifest()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((name, exc))

        threads = [
            threading.Thread(target=worker, args=("a", req_a, ctx_a)),
            threading.Thread(target=worker, args=("b", req_b, ctx_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert set(results) == {"a", "b"}

        # Tolerance 0: every simulated field identical to the serial run.
        assert _strip_host_fields(results["a"]) == _strip_host_fields(ref_a)
        assert _strip_host_fields(results["b"]) == _strip_host_fields(ref_b)

        # Each store holds exactly its own thread's trace — no bleed.
        entries_a = {e.key for e in store_a.entries()}
        entries_b = {e.key for e in store_b.entries()}
        assert len(entries_a) == 1
        assert len(entries_b) == 1
        assert entries_a.isdisjoint(entries_b)

    def test_each_thread_keeps_its_own_obs_sinks(
        self, graph, tmp_path, monkeypatch,
    ):
        """Two attributed runs on one store, each thread with its own
        tracer and metrics registry: every sink must record exactly
        what a serial run records. Both threads install their sinks
        before either runs on — the first install parks until the
        second arrives — so a tracer or registry ambient shared across
        threads would hand one thread's events to the other's sink."""
        from repro.core.system import run_system

        def sinks(algorithm, store, results=None):
            ctx = RunContext(store=store, attribution=True,
                             tracer=SpanTracer(), metrics=MetricsRegistry())
            report = run_system(graph, context=ctx, request=RunRequest(
                algorithm=algorithm, dataset=f"t{algorithm}",
            ))
            out = (
                [(s.name, s.cat, s.depth, s.parent, s.args)
                 for s in ctx.tracer.records],
                [(c.name, c.values) for c in ctx.tracer.counters],
                ctx.metrics.snapshot(),
                _strip_host_fields(report.manifest()),
            )
            if results is not None:
                results[algorithm] = out
            return out

        serial = {
            alg: sinks(alg, TraceStore(tmp_path / f"ref-{alg}"))
            for alg in ("pagerank", "bfs")
        }
        for module, name in ((obs_tracer, "set_tracer"),
                             (obs_metrics, "set_registry")):
            window, install = Window(), getattr(module, name)

            def parked(sink, window=window, install=install):
                window.park()
                previous = install(sink)
                window.arrive()
                return previous

            monkeypatch.setattr(module, name, parked)

        shared, results = TraceStore(tmp_path / "shared"), {}
        threads = [
            threading.Thread(target=sinks, args=(alg, shared, results))
            for alg in serial
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert results == serial
