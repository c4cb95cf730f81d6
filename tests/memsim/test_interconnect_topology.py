"""Tests for the interconnect topologies (crossbar vs 2D mesh)."""

import pytest

from repro.config import InterconnectConfig
from repro.core.context import RunRequest
from repro.errors import ConfigError
from repro.memsim.interconnect import Crossbar


class TestCrossbarTopology:
    def test_uniform_latency(self):
        xb = Crossbar(InterconnectConfig(), 16)
        assert xb.transfer_latency(0, 15) == 17
        assert xb.transfer_latency(0, 1) == 17
        assert xb.transfer_latency() == 17


class TestMeshTopology:
    def _mesh(self, cores=16):
        return Crossbar(
            InterconnectConfig(topology="mesh", mesh_hop_cycles=3,
                               mesh_router_cycles=2),
            cores,
        )

    def test_hops_manhattan(self):
        mesh = self._mesh(16)  # 4x4 grid
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3    # same row
        assert mesh.hops(0, 12) == 3   # same column
        assert mesh.hops(0, 15) == 6   # opposite corner

    def test_latency_scales_with_distance(self):
        mesh = self._mesh(16)
        near = mesh.transfer_latency(0, 1)
        far = mesh.transfer_latency(0, 15)
        assert near == 2 + 3
        assert far == 2 + 18
        assert far > near

    def test_unknown_endpoints_use_average(self):
        mesh = self._mesh(16)
        avg = mesh.transfer_latency()
        assert mesh.transfer_latency(0, 1) <= avg <= mesh.transfer_latency(0, 15)

    def test_average_hops_formula(self):
        mesh = self._mesh(16)
        # Brute force the expectation over all (src, dst) pairs.
        side = 4
        total = sum(
            mesh.hops(a, b) for a in range(16) for b in range(16)
        )
        brute = total / (16 * 16)
        assert mesh.average_hops() == pytest.approx(brute, rel=1e-9)

    def test_bigger_mesh_longer_average(self):
        small = self._mesh(16)
        big = self._mesh(64)
        assert big.average_hops() > small.average_hops()

    def test_traffic_accounting_identical_across_topologies(self):
        import dataclasses

        import numpy as np

        from repro.config import SimConfig
        from repro.ligra.trace import FLAG_WRITE, AccessClass, Trace
        from repro.memsim.backends import BaselineBackend

        n = 64
        trace = Trace(
            core=np.arange(n, dtype=np.int16) % 16,
            addr=np.arange(n, dtype=np.int64) % 8 * 64,
            size=np.full(n, 8, dtype=np.int16),
            access_class=np.full(n, int(AccessClass.NGRAPH), dtype=np.int8),
            flags=np.where(np.arange(n) % 3 == 0, FLAG_WRITE, 0).astype(
                np.int8),
            vertex=np.full(n, -1, dtype=np.int64),
        )
        xb = SimConfig.scaled_baseline(num_cores=16)
        mesh = dataclasses.replace(xb, interconnect=self._mesh(16).config)
        stats = [BaselineBackend(cfg).replay(trace).stats
                 for cfg in (xb, mesh)]
        assert stats[0].onchip_line_bytes > 0
        assert stats[0].onchip_word_bytes > 0
        assert stats[0].onchip_traffic_bytes == stats[1].onchip_traffic_bytes

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError, match="topology"):
            InterconnectConfig(topology="torus")


class TestEndToEndTopology:
    def test_mesh_16_cores_cheaper_than_crossbar(self):
        """A 4x4 mesh's average distance (~2.7 hops ≈ 10 cycles) beats
        the paper's 17-cycle crossbar average, so the baseline —
        which moves whole cache lines across the chip — speeds up."""
        import dataclasses

        from repro.config import SimConfig
        from repro.core.system import run_system
        from repro.graph.generators import rmat_graph

        g = rmat_graph(9, edge_factor=8, seed=3)
        base = SimConfig.scaled_baseline(num_cores=16)
        mesh_cfg = dataclasses.replace(
            base, interconnect=InterconnectConfig(topology="mesh")
        )
        crossbar = run_system(g, RunRequest("pagerank"), base)
        mesh = run_system(g, RunRequest("pagerank"), mesh_cfg)
        assert mesh.cycles <= crossbar.cycles
