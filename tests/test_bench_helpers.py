"""Tests for the benchmark-harness helpers (tables and runner)."""

import pytest

from repro.bench.runner import FIG14_WORKLOADS, PAGERANK_DATASETS, bench_graph
from repro.bench.tables import format_table, print_heatmap, print_series, print_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(
            [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert lines[1].startswith("a")
        assert "22" in lines[4]

    def test_missing_cells_blank(self):
        out = format_table([{"a": 1}, {"b": 2}])
        assert "a" in out and "b" in out

    def test_column_order_follows_first_appearance(self):
        out = format_table([{"z": 1, "a": 2}])
        header = out.splitlines()[0]
        assert header.index("z") < header.index("a")

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="x")

    def test_float_formatting(self):
        out = format_table([{"v": 3.14159}])
        assert "3.14" in out

    def test_large_number_formatting(self):
        out = format_table([{"v": 1234567.0}])
        assert "1,234,567" in out


class TestPrinters:
    def test_print_table(self, capsys):
        print_table([{"a": 1}], title="t")
        assert "== t ==" in capsys.readouterr().out

    def test_print_series(self, capsys):
        print_series({"x": 1.5, "long-label": 2}, title="s", unit="GB/s")
        out = capsys.readouterr().out
        assert "== s ==" in out
        assert "GB/s" in out
        assert "long-label" in out

    def test_print_series_empty(self, capsys):
        print_series({}, title="empty")
        assert "== empty ==" in capsys.readouterr().out

    def test_print_heatmap(self, capsys):
        print_heatmap(
            {"alg1": {"d1": 1.0, "d2": 2.0}, "alg2": {"d1": 3.0}},
            title="h",
            col_order=("d1", "d2"),
        )
        out = capsys.readouterr().out
        assert "alg1" in out and "d2" in out

    def test_print_heatmap_infers_columns(self, capsys):
        print_heatmap({"a": {"x": 1}})
        assert "x" in capsys.readouterr().out


class TestRunner:
    def test_bench_graph_cached(self):
        a, _ = bench_graph("sd", scale=0.25)
        b, _ = bench_graph("sd", scale=0.25)
        assert a is b

    def test_bench_graph_undirected_view(self):
        g, _ = bench_graph("sd", scale=0.25, undirected=True)
        assert not g.directed

    def test_bench_graph_weighted(self):
        g, _ = bench_graph("sd", scale=0.25, weighted=True)
        assert g.weighted

    def test_workload_lists_reference_known_names(self):
        from repro.algorithms.registry import ALGORITHMS
        from repro.graph.datasets import DATASETS

        for alg, ds in FIG14_WORKLOADS:
            assert alg in ALGORITHMS
            assert ds in DATASETS
        for ds in PAGERANK_DATASETS:
            assert ds in DATASETS

    def test_fig14_respects_graph_requirements(self):
        from repro.algorithms.registry import ALGORITHMS
        from repro.graph.datasets import DATASETS

        for alg, ds in FIG14_WORKLOADS:
            if ALGORITHMS[alg].requires_undirected:
                # must be runnable after as_undirected (always true) —
                # but the registry entry must point at an undirected
                # dataset for the paper-faithful sweep.
                assert not DATASETS[ds].directed


class TestRunComparisonAndSweep:
    @pytest.mark.slow
    def test_run_comparison(self):
        from repro.bench.runner import run_comparison

        cmp = run_comparison("pagerank", "sd", scale=0.5)
        assert cmp.baseline.dataset == "sd"
        assert cmp.speedup > 0

    @pytest.mark.slow
    def test_run_comparison_handles_requirements(self):
        from repro.bench.runner import run_comparison

        cc = run_comparison("cc", "ap", scale=0.5)
        assert cc.baseline.algorithm == "cc"
        sssp = run_comparison("sssp", "sd", scale=0.5)
        assert sssp.baseline.algorithm == "sssp"

    @pytest.mark.slow
    def test_sweep_runs_list(self):
        from repro.bench.runner import sweep

        results = sweep([("pagerank", "sd"), ("bfs", "sd")], scale=0.5)
        assert [c.baseline.algorithm for c in results] == ["pagerank", "bfs"]


class TestRecordBench:
    """``BENCH_<name>.json`` trajectories are appended, never dropped."""

    def _record(self, root, value):
        from repro.bench.record import record_bench

        return record_bench("demo", {"x": value}, root,
                            {"seed_events_per_sec": 123.0})

    def test_appends_and_keeps_the_anchor(self, tmp_path):
        from repro.bench.record import bench_baseline_context, load_bench

        self._record(tmp_path, 1)
        self._record(tmp_path, 2)
        entries = load_bench("demo", tmp_path)
        assert [e["manifest"]["metrics"]["x"] for e in entries] == [1, 2]
        assert bench_baseline_context(
            "demo", tmp_path, "seed_events_per_sec") == 123.0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    @pytest.mark.parametrize("content", ['[{"torn": ', "{}", ""])
    def test_unreadable_trajectory_raises_and_is_left_untouched(
            self, tmp_path, content):
        from repro.errors import ReproError

        path = tmp_path / "BENCH_demo.json"
        path.write_text(content)
        with pytest.raises(ReproError):
            self._record(tmp_path, 3)
        assert path.read_text() == content
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    def test_failed_write_leaves_the_old_trajectory(self, tmp_path,
                                                    monkeypatch):
        import os

        self._record(tmp_path, 1)
        path = tmp_path / "BENCH_demo.json"
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            self._record(tmp_path, 2)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]
