"""Tests for the dynamic hot-set identification hierarchy (Section VI)."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.errors import SimulationError
from repro.ligra.trace import AccessClass, FLAG_ATOMIC, FLAG_WRITE, Trace
from repro.memsim.backends import DynamicScratchpadBackend
from repro.core.offload import microcode_for_algorithm


def make_trace(cores, vertices, flags=None):
    n = len(vertices)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray([0x1000 + 8 * v for v in vertices], dtype=np.int64),
        size=np.full(n, 8, dtype=np.int16),
        access_class=np.full(n, int(AccessClass.VTXPROP), dtype=np.int8),
        flags=np.asarray(flags if flags is not None else [0] * n,
                         dtype=np.int8),
        vertex=np.asarray(vertices, dtype=np.int64),
    )


@pytest.fixture()
def cfg():
    return SimConfig.scaled_omega(num_cores=4)


class TestConstruction:
    def test_requires_omega_config(self):
        with pytest.raises(SimulationError):
            DynamicScratchpadBackend(SimConfig.scaled_baseline(), 64)

    def test_validates_capacity(self, cfg):
        with pytest.raises(SimulationError):
            DynamicScratchpadBackend(cfg, -1)

    def test_validates_slots(self, cfg):
        with pytest.raises(SimulationError):
            DynamicScratchpadBackend(cfg, 64, slots_per_set=0)


class TestDynamicBehaviour:
    def test_first_touch_allocates(self, cfg):
        dyn = DynamicScratchpadBackend(cfg, capacity_vertices=64)
        out = dyn.replay(make_trace([0, 0], [5, 5]))
        # Both accesses resident (allocated on first touch).
        assert out.stats.sp_accesses == 2
        assert out.stats.l1_accesses == 0

    def test_hot_vertex_displaces_cold(self, cfg):
        # Capacity 4, one set: vertices 0,4,8,12 fill it (same set via
        # modulo), then a frequently-touched vertex evicts the coldest.
        dyn = DynamicScratchpadBackend(cfg, capacity_vertices=4,
                                       slots_per_set=4)
        fill = [0, 4, 8, 12]
        hot = [16] * 5
        trace = make_trace([0] * 9, fill + hot)
        out = dyn.replay(trace)
        # The first hot access misses (count 1 not > resident count 1),
        # later ones win a slot and hit.
        assert out.stats.sp_accesses >= len(fill) + len(hot) - 2

    def test_atomics_offload_when_resident(self, cfg):
        dyn = DynamicScratchpadBackend(
            cfg, capacity_vertices=64,
            microcode=microcode_for_algorithm("pagerank"),
        )
        tr = make_trace([0, 1], [3, 3],
                        flags=[FLAG_WRITE | FLAG_ATOMIC] * 2)
        out = dyn.replay(tr)
        assert out.stats.atomics_offloaded == 2
        assert out.stats.pisc_ops == 2

    def test_atomics_on_core_without_microcode(self, cfg):
        dyn = DynamicScratchpadBackend(cfg, capacity_vertices=64)
        tr = make_trace([0], [3], flags=[FLAG_WRITE | FLAG_ATOMIC])
        out = dyn.replay(tr)
        assert out.stats.atomics_on_cores == 1

    def test_zero_capacity_falls_through_to_caches(self, cfg):
        dyn = DynamicScratchpadBackend(cfg, capacity_vertices=0)
        out = dyn.replay(make_trace([0, 0], [1, 1]))
        assert out.stats.sp_accesses == 0
        assert out.stats.l1_accesses == 2

    def test_tag_overhead_matches_paper_claim(self, cfg):
        dyn = DynamicScratchpadBackend(cfg, capacity_vertices=64)
        # BFS: 4-byte vtxProp, 4-byte tag -> "2x overhead" (i.e. +100%).
        assert dyn.tag_overhead_fraction(4) == pytest.approx(1.0)
        assert dyn.tag_overhead_fraction(8) == pytest.approx(0.5)
        with pytest.raises(SimulationError):
            dyn.tag_overhead_fraction(0)


class TestEndToEnd:
    def test_dynamic_close_to_static_without_preprocessing(self):
        """The dynamic approach approaches static OMEGA's benefit with
        no reordering pass (the paper's stated motivation for it)."""
        from repro.algorithms.pagerank import run_pagerank
        from repro.core.system import run_system
        from repro.graph.generators import rmat_graph
        from repro.memsim.core_model import compute_timing
        from repro.memsim.scratchpad import hot_capacity_for

        g = rmat_graph(9, edge_factor=8, seed=3)
        cfg = SimConfig.scaled_omega()
        base = run_system(
            g, RunRequest("pagerank"), SimConfig.scaled_baseline()
        )
        static = run_system(g, RunRequest("pagerank"), cfg)

        res = run_pagerank(g, num_cores=16, chunk_size=32)
        cap = hot_capacity_for(cfg.scratchpad_total_bytes, 9, g.num_vertices)
        dyn = DynamicScratchpadBackend(
            cfg, cap, microcode_for_algorithm("pagerank")
        )
        out = dyn.replay(res.trace)
        cycles = compute_timing(out, cfg).total_cycles
        assert cycles < base.cycles                 # beats the baseline
        assert cycles > static.cycles * 0.8         # near, usually behind,
        #                                             the static mapping
