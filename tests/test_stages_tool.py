"""Smoke test of ``tools/stages.py`` on a small cell.

The tool reports the program's own tracer spans (and wraps the span
flush in one), so a stage renamed away in the program would silently
drop out of its report. One cold estimate and one warm replay of a
small PageRank run every stage it lists; each must show up with its
calls, seconds and tracemalloc peak.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.context import RunContext, RunRequest
from repro.core.system import estimate_system, run_system
from repro.graph.generators import rmat_graph
from repro.store import TraceStore

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("stages_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _SmallCell:
    """A perfbench-shaped workload: cold estimate, then warm replay."""

    def setup(self, seed, root, span):
        return {"graph": rmat_graph(8, edge_factor=8, seed=seed)}

    def work(self, state, root, span):
        context = RunContext(store=TraceStore(root))
        request = RunRequest("pagerank", backend="omega", dataset="t",
                             num_cores=4)
        with span("core"):
            estimate_system(state["graph"], request, context=context)
            report = run_system(state["graph"], request, context=context)
        assert report.trace_cache["hit"] is True
        return [SimpleNamespace(name="pagerank/t/omega", error=None)]


def test_every_listed_stage_runs(stages, tmp_path):
    seconds, table, reused = stages.profile(_SmallCell(), 1, tmp_path,
                                            memory=True)
    assert seconds > 0 and reused == 0
    assert stages.missing(table) == []
    for _, cat, names in stages.STAGES:
        for name in names:
            calls, secs, peak = table[cat, name]
            assert calls >= 1 and secs >= 0 and peak >= 0
    assert table["estimate", "l1"][2] > 0
    text = stages.render(seconds, table, memory=True)
    assert "estimate/l2" in text and "ligra/span_flush" in text
    assert "peak MiB" in text
