"""The manifest's ``replay.kernel`` block on a real trace, every backend.

The block is the run's record of how much of the cache path the
vectorized screen resolved; ``repro explain`` renders it and the
``kernel.screening`` Perfetto counter track mirrors it.
"""

import json

import pytest

from repro.cli import main
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_system
from repro.graph.generators import rmat_graph

BACKENDS = ["baseline", "omega", "locked", "graphpim", "dynamic"]

#: The v7 ``replay.kernel`` key set.
KERNEL_KEYS = {
    "mode", "batches", "events", "screened", "screened_fraction",
    "serialized_events", "reused",
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(7, edge_factor=6, seed=11)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_block(graph, backend, tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    request = RunRequest(
        algorithm="pagerank", backend=backend, num_cores=4,
        manifest_path=str(manifest_path), trace_path=str(trace_path),
    )
    run_system(graph, request=request, context=RunContext())

    doc = json.loads(manifest_path.read_text())
    assert doc["schema"] == "omega-repro/run-manifest/v7"
    kernel = doc["replay"]["kernel"]
    assert set(kernel) == KERNEL_KEYS
    assert kernel["mode"] == "kernel"
    assert kernel["batches"] >= 1
    assert kernel["screened"] + kernel["serialized_events"] \
        == kernel["events"]
    assert kernel["reused"] == 0  # a context without a store reuses nothing

    events = json.loads(trace_path.read_text())["traceEvents"]
    counters = [e["args"] for e in events
                if e["ph"] == "C" and e["name"] == "kernel.screening"]
    assert counters
    assert all(set(args) == {"screened", "serialized"}
               for args in counters)

    capsys.readouterr()
    assert main(["explain", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "kernel screening:" in out
    assert f"  screened: {kernel['screened']} (" in out
    assert f"  residual: serialized {kernel['serialized_events']}" in out


def test_explain_renders_v6_kernel_block(tmp_path, capsys):
    """Older manifests keep rendering: missing keys fall back to 0."""
    path = tmp_path / "v6.json"
    path.write_text(json.dumps({
        "schema": "omega-repro/run-manifest/v6",
        "replay": {"kernel": {
            "mode": "kernel", "batches": 1, "events": 10, "screened": 6,
            "screened_fraction": 0.6, "screened_per_generation": [6],
            "generations": 1, "grouped_events": 0,
            "serialized_events": 4, "groups": 1,
        }},
    }))
    assert main(["explain", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  screened: 6 (60.0%)" in out
    assert "  residual: serialized 4" in out
