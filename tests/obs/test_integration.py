"""End-to-end telemetry tests: one instrumented run, all three lenses."""

import json
import re
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import estimate_system, run_backends, run_system
from repro.graph.generators import rmat_graph
from repro.obs import MetricsRegistry, SpanTracer, use_registry, use_tracer
from repro.store import TraceStore

DRIVERS = ("run_system", "run_backends", "estimate_system")

OBSERVABILITY_DOC = (
    Path(__file__).resolve().parents[2] / "docs" / "observability.md"
)


def documented_span_tree():
    """The span tree drawn in ``docs/observability.md``, as
    ``(name, parent name)`` pairs (``None`` for the root)."""
    doc = OBSERVABILITY_DOC.read_text()
    block = doc.split("## Span tracing", 1)[1].split("```", 2)[1]
    stack, edges = [], []
    for line in block.splitlines():
        m = re.match(r"^(?:([│ ]*)[├└]── )?([a-z0-9_.]+)", line)
        if not m:
            continue  # blank, or a note continued from the line above
        depth = 0 if m.group(1) is None else len(m.group(1)) // 4 + 1
        del stack[depth:]
        edges.append((m.group(2), stack[-1] if stack else None))
        stack.append(m.group(2))
    return edges


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=6, seed=3)


def _drive(driver, graph, sinks, tracer, registry):
    """Run ``driver`` on the baseline with the obs sinks either installed
    on the thread or carried by the context; return its event count."""
    if sinks == "installed":
        with use_tracer(tracer), use_registry(registry):
            return _call(driver, graph, RunContext())
    return _call(driver, graph, RunContext(tracer=tracer, metrics=registry))


def _call(driver, graph, context):
    request = RunRequest("pagerank", dataset="t", num_cores=4)
    config = SimConfig.scaled_baseline(num_cores=4)
    if driver == "run_system":
        return run_system(graph, request, config,
                          context=context).trace_events
    if driver == "run_backends":
        reports = run_backends(graph, request, ("baseline",),
                               {"baseline": config}, context=context)
        return reports["baseline"].trace_events
    return estimate_system(graph, request, config, context=context).events


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

    def test_documented_span_tree_matches_a_windowed_run(self, graph,
                                                         tmp_path):
        # A cold, stored, attributed, windowed omega run opens every
        # span the doc draws, each under the parent the doc gives it.
        path = tmp_path / "trace.json"
        run_system(
            graph,
            RunRequest("pagerank", dataset="t", trace_path=path,
                       obs_window=0),
            SimConfig.scaled_omega(num_cores=4),
            context=RunContext(store=TraceStore(tmp_path / "store"),
                               attribution=True),
        )
        spans = [e for e in json.loads(path.read_text())["traceEvents"]
                 if e["ph"] == "X"]
        by_id = {e["id"]: e["name"] for e in spans}
        seen = {(e["name"], by_id.get(e["args"]["parent"])) for e in spans}
        edges = documented_span_tree()
        assert len(edges) >= 17
        assert [e for e in edges if e not in seen] == []

    @pytest.mark.parametrize("sinks", ["installed", "context"])
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_installed_tracer_is_reused(self, graph, driver, sinks):
        """Every driver's spans — its own and the engine's and replay's
        deep inside it — reach the tracer it was given."""
        tracer = SpanTracer()
        _drive(driver, graph, sinks, tracer, MetricsRegistry())
        names = {r.name for r in tracer.records}
        assert {driver, "edge_map"} <= names
        if driver != "estimate_system":
            assert "replay" in names

    @pytest.mark.parametrize("sinks", ["installed", "context"])
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_metrics_registry_collects_counters(self, graph, driver, sinks):
        registry = MetricsRegistry()
        events = _drive(driver, graph, sinks, SpanTracer(), registry)
        counters = registry.snapshot()["counters"]
        assert counters["ligra.edge_map_calls"] > 0
        assert counters["ligra.vertex_map_calls"] > 0
        if driver != "estimate_system":
            assert counters["replay.events"] == events

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
