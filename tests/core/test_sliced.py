"""Tests for the Section VII sliced-execution driver."""

import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.errors import SimulationError
from repro.core.sliced import run_sliced, slice_plan
from repro.graph.generators import rmat_graph


@pytest.fixture(scope="module")
def big_graph():
    # 2048 vertices: top-20% (410) overflows a 128-vertex scratchpad.
    return rmat_graph(11, edge_factor=6, seed=17)


@pytest.fixture(scope="module")
def tiny_sp_config():
    # 16 cores x 72 B pads = 1152 B -> 128 nine-byte vertices.
    return SimConfig.scaled_omega().with_scratchpad_bytes(72)


class TestSlicePlan:
    def test_plain_plan_sizes_by_full_capacity(self, big_graph, tiny_sp_config):
        slices = slice_plan(big_graph, tiny_sp_config, 9, power_law_aware=False)
        capacity = tiny_sp_config.scratchpad_total_bytes // 9
        assert all(s.num_owned_vertices <= capacity for s in slices)

    def test_aware_plan_has_fewer_slices(self, big_graph, tiny_sp_config):
        plain = slice_plan(big_graph, tiny_sp_config, 9, power_law_aware=False)
        aware = slice_plan(big_graph, tiny_sp_config, 9, power_law_aware=True)
        assert len(aware) < len(plain)
        # The paper's ~5x claim (1 / hot_fraction).
        assert len(plain) / len(aware) >= 3

    def test_zero_capacity_rejected(self, big_graph):
        cfg = SimConfig.scaled_omega().with_scratchpad_bytes(0)
        with pytest.raises(SimulationError, match="capacity"):
            slice_plan(big_graph, cfg, 9, power_law_aware=True)


class TestRunSliced:
    def test_requires_omega_config(self, big_graph):
        with pytest.raises(SimulationError, match="OMEGA"):
            run_sliced(
                big_graph, RunRequest("pagerank"), SimConfig.scaled_baseline()
            )

    def test_report_accounting(self, big_graph, tiny_sp_config):
        rep = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=True,
        )
        assert rep.num_slices == len(rep.slice_reports)
        assert rep.total_cycles == pytest.approx(
            rep.compute_cycles + rep.merge_cycles
        )
        assert 0 <= rep.overhead_fraction < 1

    def test_each_slice_hot_set_fits(self, big_graph, tiny_sp_config):
        rep = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=False,
        )
        # With plain slicing every slice's vtxProp fits entirely, so
        # every slice's run reports full hot coverage of its range...
        # hot_fraction is relative to all n vertices, so just check the
        # per-slice hot capacity covers the owned range.
        capacity = tiny_sp_config.scratchpad_total_bytes // 9
        for r in rep.slice_reports:
            assert r.hot_capacity <= max(capacity, 1)

    def test_aware_beats_plain(self, big_graph, tiny_sp_config):
        plain = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=False,
        )
        aware = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=True,
        )
        assert aware.num_slices < plain.num_slices
        assert aware.total_cycles < plain.total_cycles

    def test_merge_overhead_grows_with_slices(self, big_graph, tiny_sp_config):
        plain = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=False,
        )
        aware = run_sliced(
            big_graph, RunRequest("pagerank"), tiny_sp_config,
            power_law_aware=True,
        )
        assert plain.merge_cycles >= aware.merge_cycles
