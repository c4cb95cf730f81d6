"""Guard the examples and the benchmarks' imports against bit-rot."""

import ast
import importlib
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
BENCHMARKS = sorted((EXAMPLES_DIR.parent / "benchmarks").glob("*.py"))


def _repro_imports(path):
    """``(module, name)`` for every ``repro`` import in ``path``; the
    name is ``None`` for a plain ``import repro...``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


class TestExamplesCompile:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert "quickstart" in names
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"),
                           doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_has_main_guard_and_docstring(self, path):
        text = path.read_text()
        assert '__name__ == "__main__"' in text
        assert text.lstrip().startswith(("#!/usr/bin/env python3", '"""'))


class TestImportsResolve:
    """Tier-1 never imports the benchmarks, so a removed name would
    otherwise surface only when someone runs that benchmark."""

    @pytest.mark.parametrize(
        "path", EXAMPLES + BENCHMARKS,
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_repro_imports_exist(self, path):
        for module_name, name in _repro_imports(path):
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):
                # ``from repro.pkg import submodule`` is fine too.
                importlib.import_module(f"{module_name}.{name}")


@pytest.mark.slow
class TestExamplesRun:
    def test_quickstart_runs(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "speedup" in proc.stdout

    @pytest.mark.parametrize(
        "name", ["custom_algorithm", "trace_analysis", "large_graph_planning"]
    )
    def test_example_runs(self, name):
        """The examples that build backends directly, end to end."""
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
