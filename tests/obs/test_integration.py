"""End-to-end telemetry tests: one instrumented run, all three lenses."""

import json

import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.core.system import run_system
from repro.graph.generators import rmat_graph
from repro.obs import MetricsRegistry, SpanTracer, use_registry, use_tracer


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=6, seed=3)


class TestInstrumentedRun:
    def test_trace_has_nested_phases(self, graph, tmp_path):
        path = tmp_path / "trace.json"
        run_system(
            graph, RunRequest("pagerank", dataset="t", trace_path=path),
            SimConfig.scaled_omega(num_cores=4),
        )
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        assert {"run_system", "trace_generation", "algorithm", "edge_map",
                "replay"} <= names
        # Every replay also samples the kernel-screening counter track.
        assert any(e["ph"] == "C" and e["name"] == "kernel.screening"
                   for e in events)
        # The acceptance bar: at least 3 levels of span nesting
        # (counter samples carry values, not depth).
        assert max(e["args"]["depth"] for e in events
                   if e["ph"] == "X") >= 3

    def test_windowed_run_emits_windows_and_spans(self, graph, tmp_path):
        trace = tmp_path / "trace.json"
        timeline = tmp_path / "timeline.json"
        report = run_system(
            graph,
            RunRequest("pagerank", dataset="t", trace_path=trace,
                       timeline_path=timeline),
            SimConfig.scaled_omega(num_cores=4),
        )
        doc = json.loads(timeline.read_text())
        assert doc["num_windows"] >= 10
        assert doc["num_windows"] == report.timeline.num_windows
        spans = json.loads(trace.read_text())["traceEvents"]
        assert sum(1 for e in spans if e["name"] == "window") == (
            doc["num_windows"]
        )

    def test_installed_tracer_is_reused(self, graph):
        tracer = SpanTracer()
        with use_tracer(tracer):
            run_system(
                graph, RunRequest("pagerank", dataset="t"),
                SimConfig.scaled_baseline(num_cores=4),
            )
        assert any(r.name == "run_system" for r in tracer.records)

    def test_metrics_registry_collects_counters(self, graph):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_system(
                graph, RunRequest("pagerank", dataset="t"),
                SimConfig.scaled_baseline(num_cores=4),
            )
        counters = registry.snapshot()["counters"]
        assert counters["replay.events"] == report.trace_events
        assert counters["ligra.edge_map_calls"] > 0
        assert counters["ligra.vertex_map_calls"] > 0

    def test_registry_snapshot_rides_timeline(self, graph, tmp_path):
        path = tmp_path / "timeline.json"
        with use_registry(MetricsRegistry()):
            run_system(
                graph, RunRequest("pagerank", dataset="t", timeline_path=path),
                SimConfig.scaled_baseline(num_cores=4),
            )
        doc = json.loads(path.read_text())
        assert doc["metrics"]["counters"]["replay.events"] > 0

    def test_manifest_telemetry_block(self, graph, tmp_path):
        path = tmp_path / "manifest.json"
        run_system(
            graph,
            RunRequest("pagerank", dataset="t", manifest_path=path,
                       obs_window=0),
            SimConfig.scaled_omega(num_cores=4),
        )
        doc = json.loads(path.read_text())
        block = doc["telemetry"]
        assert block["num_windows"] >= 10
        assert "l2_hit_rate" in block["summary"]
        assert block["summary"]["dram_gbps"]["count"] == (
            block["num_windows"]
        )
