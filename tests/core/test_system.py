"""Tests for the full-system drivers (run_system / compare_systems)."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.errors import SimulationError
from repro.core.system import compare_systems, run_system
from repro.graph.generators import rmat_graph


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, edge_factor=8, seed=21)


@pytest.fixture(scope="module")
def baseline_cfg():
    return SimConfig.scaled_baseline(num_cores=4)


@pytest.fixture(scope="module")
def omega_cfg():
    return SimConfig.scaled_omega(num_cores=4)


class TestRunSystem:
    def test_baseline_report_fields(self, graph, baseline_cfg):
        rep = run_system(
            graph, RunRequest("pagerank", dataset="t"), baseline_cfg
        )
        assert rep.system == baseline_cfg.name
        assert rep.algorithm == "pagerank"
        assert rep.dataset == "t"
        assert rep.cycles > 0
        assert rep.trace_events > 0
        assert rep.hot_capacity == 0

    def test_omega_report_has_hot_capacity(self, graph, omega_cfg):
        rep = run_system(graph, RunRequest("pagerank"), omega_cfg)
        assert rep.hot_capacity > 0
        assert 0 < rep.hot_fraction <= 1

    def test_omega_offloads_atomics(self, graph, omega_cfg):
        rep = run_system(graph, RunRequest("pagerank"), omega_cfg)
        assert rep.stats.atomics_offloaded > 0

    def test_baseline_keeps_atomics_on_cores(self, graph, baseline_cfg):
        rep = run_system(graph, RunRequest("pagerank"), baseline_cfg)
        assert rep.stats.atomics_offloaded == 0
        assert rep.stats.atomics_on_cores > 0

    def test_reorder_default_only_for_omega(self, graph, baseline_cfg, omega_cfg):
        base = run_system(graph, RunRequest("pagerank"), baseline_cfg)
        omega = run_system(graph, RunRequest("pagerank"), omega_cfg)
        # Same workload size either way.
        assert base.num_edges == omega.num_edges

    def test_source_translated_through_reorder(self, graph, omega_cfg):
        # Explicit source in original ids must survive reordering:
        # the traversal must touch the same number of vertices.
        from repro.algorithms.bfs import run_bfs

        src = int(graph.out_degrees().argmax())
        plain = run_bfs(graph, source=src, trace=False)
        reached = int((plain.value("level") >= 0).sum())
        rep = run_system(
            graph, RunRequest("bfs", alg_kwargs={"source": src}), omega_cfg
        )
        # Compare via trace volume: same reachable set size implies
        # comparable edge work (exact equality of traces is not
        # expected since ids differ).
        rep_base = run_system(
            graph, RunRequest("bfs", alg_kwargs={"source": src}),
            SimConfig.scaled_baseline(num_cores=4),
        )
        assert rep.trace_events == pytest.approx(rep_base.trace_events, rel=0.05)
        assert reached > 1

    def test_sp_chunk_mismatch_increases_remote(self, graph, omega_cfg):
        matched = run_system(
            graph, RunRequest("pagerank", chunk_size=32, sp_chunk_size=32),
            omega_cfg,
        )
        mismatched = run_system(
            graph, RunRequest("pagerank", chunk_size=32, sp_chunk_size=1),
            omega_cfg,
        )
        assert (
            mismatched.stats.sp_remote_accesses
            > matched.stats.sp_remote_accesses
        )

    def test_energy_model_override(self, graph, baseline_cfg):
        from repro.memsim.energy import EnergyModel

        expensive = EnergyModel(dram_nj_per_byte=100.0)
        rep = run_system(
            graph, RunRequest("pagerank"), baseline_cfg, energy_model=expensive
        )
        cheap = run_system(graph, RunRequest("pagerank"), baseline_cfg)
        assert rep.energy.dram_nj > cheap.energy.dram_nj

    def test_summary_keys(self, graph, baseline_cfg):
        rep = run_system(
            graph, RunRequest("pagerank", dataset="x"), baseline_cfg
        )
        s = rep.summary()
        for key in ("cycles", "l2_hit_rate", "dram_bw_gbps", "bottleneck"):
            assert key in s


class TestCompareSystems:
    def test_speedup_positive(self, graph, baseline_cfg, omega_cfg):
        cmp = compare_systems(
            graph, RunRequest("pagerank"), baseline_cfg, omega_cfg
        )
        assert cmp.speedup > 0
        assert cmp.baseline.algorithm == cmp.omega.algorithm

    def test_powerlaw_speedup_above_one(self, graph, baseline_cfg, omega_cfg):
        cmp = compare_systems(
            graph, RunRequest("pagerank"), baseline_cfg, omega_cfg
        )
        assert cmp.speedup > 1.2

    def test_traffic_reduction_above_one(self, graph, baseline_cfg, omega_cfg):
        cmp = compare_systems(
            graph, RunRequest("pagerank"), baseline_cfg, omega_cfg
        )
        assert cmp.traffic_reduction > 1.0

    def test_summary(self, graph, baseline_cfg, omega_cfg):
        s = compare_systems(
            graph, RunRequest("pagerank", dataset="d"), baseline_cfg, omega_cfg
        ).summary()
        assert s["dataset"] == "d"
        assert "speedup" in s and "energy_saving" in s

    def test_default_configs(self, graph):
        cmp = compare_systems(graph, RunRequest("pagerank"))
        assert cmp.baseline.config.name == "baseline-cmp-scaled"
        assert cmp.omega.config.name == "omega-scaled"

    def test_wrong_config_roles_rejected(self, graph, baseline_cfg, omega_cfg):
        with pytest.raises(SimulationError):
            compare_systems(
                graph, RunRequest("pagerank"), omega_cfg, omega_cfg
            )
        with pytest.raises(SimulationError):
            compare_systems(
                graph, RunRequest("pagerank"), baseline_cfg, baseline_cfg
            )

    def test_mismatched_algorithms_rejected(self, graph, baseline_cfg, omega_cfg):
        from repro.core.report import Comparison

        a = run_system(graph, RunRequest("pagerank"), baseline_cfg)
        b = run_system(graph, RunRequest("bfs"), omega_cfg)
        with pytest.raises(SimulationError):
            Comparison(baseline=a, omega=b)


class TestEqualStorageInvariant:
    def test_scaled_configs_match_totals(self):
        base = SimConfig.scaled_baseline()
        omega = SimConfig.scaled_omega()
        assert base.total_onchip_bytes == omega.total_onchip_bytes

    def test_paper_configs_match_totals(self):
        base = SimConfig.paper_baseline()
        omega = SimConfig.paper_omega()
        assert base.total_onchip_bytes == omega.total_onchip_bytes

    def test_with_scratchpad_bytes(self):
        omega = SimConfig.scaled_omega()
        shrunk = omega.with_scratchpad_bytes(512)
        assert shrunk.scratchpad.size_bytes == 512
        assert shrunk.l2_per_core.size_bytes == omega.l2_per_core.size_bytes
