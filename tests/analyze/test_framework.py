"""Registry, project index, and AST-helper behavior."""

import ast
import textwrap

import pytest

from repro.analyze import AnalysisError, ProjectIndex, rule_ids
from repro.analyze.astutil import import_aliases, resolve_call_target
from repro.analyze.registry import rule
from repro.errors import ReproError


def test_builtin_rule_ids_are_registered():
    assert {"DET001", "EXC001", "NPY001"} <= set(rule_ids())


def test_duplicate_rule_id_rejected():
    with pytest.raises(ReproError, match="duplicate rule id"):

        @rule(id="DET001", name="clone", description="duplicate")
        def check_clone(project):
            return []


def test_bad_severity_rejected():
    with pytest.raises(ReproError, match="unknown severity"):
        rule(id="XXX001", name="x", description="x", severity="fatal")


def test_project_requires_src_repro(tmp_path):
    with pytest.raises(AnalysisError, match="no src/repro package"):
        ProjectIndex(tmp_path)


def test_project_reports_syntax_errors(tmp_path):
    bad = tmp_path / "src" / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def oops(:\n")
    with pytest.raises(AnalysisError, match="cannot parse"):
        ProjectIndex(tmp_path)


def test_project_module_lookup_and_prefix_iteration(tree):
    root = tree({
        "src/repro/memsim/routes.py": "ROUTE_X = 1\n",
        "src/repro/memsim/backends/hw.py": "X = 1\n",
        "src/repro/graph/gen.py": "Y = 2\n",
    })
    project = ProjectIndex(root)
    assert project.get("repro.memsim.routes") is not None
    assert project.get("repro.missing") is None
    names = [m.name for m in project.iter_modules("repro.memsim")]
    assert names == [
        "repro.memsim.backends.hw", "repro.memsim.routes",
    ]
    assert len(list(project.iter_modules())) == 4  # incl. __init__


def _parse(src):
    return ast.parse(textwrap.dedent(src))


def test_alias_resolution_variants():
    tree = _parse("""\
        import time
        import numpy as np
        from datetime import datetime
        """)
    aliases = import_aliases(tree)
    call = ast.parse("np.random.rand(3)").body[0].value
    assert resolve_call_target(call.func, aliases) == "numpy.random.rand"
    call = ast.parse("datetime.now()").body[0].value
    assert resolve_call_target(call.func, aliases) == "datetime.datetime.now"
    call = ast.parse("time.time()").body[0].value
    assert resolve_call_target(call.func, aliases) == "time.time"
