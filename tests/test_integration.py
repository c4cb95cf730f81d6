"""End-to-end integration tests: the paper's headline shapes, in miniature.

These run complete baseline-vs-OMEGA comparisons on small dataset
stand-ins and assert the *directional* claims of the evaluation
section (who wins, and roughly how). They are the fast cousins of the
benchmark harness.
"""

import pytest

from repro import SimConfig, compare_systems, load_dataset, run_system
from repro.core.characterization import tmam_breakdown
from repro.core.context import RunRequest


@pytest.fixture(scope="module")
def lj():
    graph, _ = load_dataset("lj", scale=0.5)
    return graph


@pytest.fixture(scope="module")
def road():
    graph, _ = load_dataset("rCA", scale=0.5)
    return graph


class TestHeadlineShapes:
    def test_pagerank_speedup_on_powerlaw(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        assert cmp.speedup > 1.3

    def test_traffic_reduction_on_powerlaw(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        # Fig 17: on-chip traffic cut by well over 2x.
        assert cmp.traffic_reduction > 1.5

    def test_storage_hit_rate_improves(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        # Fig 15: OMEGA's combined last-level hit rate beats the
        # baseline LLC.
        assert (
            cmp.omega.stats.last_level_hit_rate
            > cmp.baseline.stats.l2_hit_rate
        )

    def test_omega_wins_less_on_road(self, lj, road):
        power = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        control = compare_systems(road, RunRequest("pagerank", dataset="rCA"))
        # Fig 18: the power-law graph benefits more.
        assert power.speedup > control.speedup

    def test_baseline_memory_bound(self, lj):
        rep = run_system(
            lj, RunRequest("pagerank"), SimConfig.scaled_baseline()
        )
        assert tmam_breakdown(rep)["memory_bound"] > 0.5

    def test_scratchpads_only_ablation(self, lj):
        """Section X-A: scratchpads without PISCs give much less."""
        full = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        no_pisc = compare_systems(
            lj, RunRequest("pagerank", dataset="lj"),
            omega_config=SimConfig.scaled_omega(use_pisc=False),
        )
        assert full.speedup > no_pisc.speedup

    def test_scratchpad_size_sensitivity(self, lj):
        """Fig 19: smaller scratchpads still help, but less."""
        omega = SimConfig.scaled_omega()
        big = compare_systems(lj, RunRequest("pagerank"), omega_config=omega)
        small = compare_systems(
            lj, RunRequest("pagerank"),
            omega_config=omega.with_scratchpad_bytes(256),
        )
        assert big.speedup >= small.speedup
        assert small.omega.hot_fraction < big.omega.hot_fraction


class TestCrossSystemConsistency:
    def test_same_trace_volume_both_systems(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank", dataset="lj"))
        # Reordering must not change the amount of algorithmic work.
        assert cmp.omega.trace_events == pytest.approx(
            cmp.baseline.trace_events, rel=0.02
        )

    def test_atomics_conserved(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank"))
        assert (
            cmp.omega.stats.atomics_total == cmp.baseline.stats.atomics_total
        )

    def test_omega_moves_atomics_to_pisc(self, lj):
        cmp = compare_systems(lj, RunRequest("pagerank"))
        omega = cmp.omega.stats
        assert omega.atomics_offloaded + omega.atomics_on_cores == (
            omega.atomics_total
        )
        assert omega.atomics_offloaded > omega.atomics_on_cores

    def test_functional_results_unaffected_by_simulation(self, lj):
        """The simulated memory system never changes algorithm output."""
        from repro.algorithms.pagerank import pagerank_reference, run_pagerank
        import numpy as np

        res = run_pagerank(lj, trace=True)
        np.testing.assert_allclose(
            res.value("rank"), pagerank_reference(lj, 1)
        )


class TestBfsEndToEnd:
    def test_bfs_speedup(self, lj):
        cmp = compare_systems(lj, RunRequest("bfs", dataset="lj"))
        assert cmp.speedup > 1.0

    def test_bfs_uses_source_buffer_or_dense_scan(self, lj):
        rep = run_system(lj, RunRequest("bfs"), SimConfig.scaled_omega())
        # BFS exercises the dense path: local scratchpad writes dominate
        # remote ones thanks to the matched chunk mapping.
        assert rep.stats.sp_local_accesses > rep.stats.sp_remote_accesses
