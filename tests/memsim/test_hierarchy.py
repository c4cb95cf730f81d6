"""Tests for trace replay through both hierarchies."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.ligra.trace import (
    AccessClass,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_WRITE,
    Trace,
)
from repro.memsim.backends import BaselineBackend, OmegaBackend
from repro.memsim.mapping import ScratchpadMapping
from repro.core.offload import microcode_for_algorithm


def make_trace(cores, addrs, flags, access_class, vertices=None, sizes=8,
               barriers=()):
    n = len(addrs)
    return Trace(
        core=np.asarray(cores, dtype=np.int16),
        addr=np.asarray(addrs, dtype=np.int64),
        size=np.full(n, sizes, dtype=np.int16),
        access_class=np.full(n, int(access_class), dtype=np.int8),
        flags=np.asarray(flags, dtype=np.int8),
        vertex=(
            np.asarray(vertices, dtype=np.int64)
            if vertices is not None
            else np.full(n, -1, dtype=np.int64)
        ),
        barriers=np.asarray(barriers, dtype=np.int64),
    )


@pytest.fixture()
def baseline_cfg():
    return SimConfig.scaled_baseline(num_cores=4)


@pytest.fixture()
def omega_cfg():
    return SimConfig.scaled_omega(num_cores=4)


class TestBaselineHierarchy:
    def test_rejects_scratchpad_config(self, omega_cfg):
        with pytest.raises(SimulationError):
            BaselineBackend(omega_cfg)

    def test_repeat_access_hits_l1(self, baseline_cfg):
        tr = make_trace([0, 0], [0x1000, 0x1000], [0, 0], AccessClass.NGRAPH)
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.l1_hits == 1
        assert out.stats.l1_misses == 1

    def test_miss_goes_to_dram(self, baseline_cfg):
        tr = make_trace([0], [0x1000], [0], AccessClass.NGRAPH)
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.l2_misses == 1
        assert out.stats.dram_read_bytes == 64

    def test_atomics_counted_and_serialized(self, baseline_cfg):
        tr = make_trace(
            [0], [0x1000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.VTXPROP,
            vertices=[0],
        )
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.atomics_on_cores == 1
        assert sum(out.stats.core_serial_cycles) > 0

    def test_ping_pong_invalidations(self, baseline_cfg):
        n = 40
        tr = make_trace(
            [i % 4 for i in range(n)],
            [0x1000] * n,
            [FLAG_WRITE | FLAG_ATOMIC] * n,
            AccessClass.VTXPROP,
            vertices=[0] * n,
        )
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.coherence_invalidations >= n - 4

    def test_streaming_prefetched(self, baseline_cfg):
        addrs = [0x10000 + 64 * i for i in range(32)]
        tr = make_trace([0] * 32, addrs, [0] * 32, AccessClass.EDGELIST)
        out = BaselineBackend(baseline_cfg).replay(tr)
        # All but the first line of the run are prefetch hits.
        assert out.stats.prefetch_hits >= 30

    def test_random_not_prefetched(self, baseline_cfg, rng):
        addrs = (rng.permutation(4096) * 64 + 0x100000).tolist()
        tr = make_trace([0] * len(addrs), addrs, [0] * len(addrs),
                        AccessClass.VTXPROP, vertices=[-1] * len(addrs))
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.prefetch_hits < len(addrs) * 0.1

    def test_empty_trace(self, baseline_cfg):
        tr = make_trace([], [], [], AccessClass.NGRAPH)
        out = BaselineBackend(baseline_cfg).replay(tr)
        assert out.stats.l1_accesses == 0

    def test_dirty_eviction_writes_back(self):
        cfg = SimConfig.scaled_baseline(num_cores=4)
        # Write many distinct lines through a tiny L1 to force dirty
        # evictions into L2 and eventually DRAM write-backs.
        n = 4096
        addrs = [0x100000 + 64 * i * 7 for i in range(n)]
        tr = make_trace([0] * n, addrs, [FLAG_WRITE] * n, AccessClass.NGRAPH)
        out = BaselineBackend(cfg).replay(tr)
        assert out.stats.dram_write_bytes > 0


class TestOmegaHierarchy:
    def _mapping(self, hot=64, cores=4, chunk=2):
        return ScratchpadMapping(cores, hot, chunk_size=chunk)

    def test_rejects_baseline_config(self, baseline_cfg):
        with pytest.raises(SimulationError):
            OmegaBackend(baseline_cfg, self._mapping())

    def test_hot_atomic_offloaded(self, omega_cfg):
        tr = make_trace(
            [0], [0x1000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.VTXPROP,
            vertices=[5],
        )
        out = OmegaBackend(
            omega_cfg, self._mapping(), microcode_for_algorithm("pagerank")
        ).replay(tr)
        assert out.stats.atomics_offloaded == 1
        assert out.stats.pisc_ops == 1
        assert out.stats.atomics_on_cores == 0

    def test_cold_atomic_stays_on_core(self, omega_cfg):
        tr = make_trace(
            [0], [0x1000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.VTXPROP,
            vertices=[1000],
        )
        out = OmegaBackend(
            omega_cfg, self._mapping(hot=64), microcode_for_algorithm("pagerank")
        ).replay(tr)
        assert out.stats.atomics_on_cores == 1
        assert out.stats.atomics_offloaded == 0

    def test_local_vs_remote_scratchpad(self, omega_cfg):
        mapping = self._mapping(hot=64, cores=4, chunk=2)
        # vertex 0 homes on pad 0; vertex 2 homes on pad 1.
        tr = make_trace(
            [0, 0], [0x1000, 0x1008], [0, 0], AccessClass.VTXPROP,
            vertices=[0, 2],
        )
        out = OmegaBackend(omega_cfg, mapping).replay(tr)
        assert out.stats.sp_local_accesses == 1
        assert out.stats.sp_remote_accesses == 1

    def test_remote_word_traffic(self, omega_cfg):
        tr = make_trace([0], [0x1000], [0], AccessClass.VTXPROP, vertices=[2])
        out = OmegaBackend(omega_cfg, self._mapping()).replay(tr)
        assert 0 < out.stats.onchip_word_bytes <= 16

    def test_source_buffer_absorbs_repeats(self, omega_cfg):
        tr = make_trace(
            [0] * 4, [0x1000] * 4, [FLAG_SRC_READ] * 4, AccessClass.VTXPROP,
            vertices=[2] * 4,
        )
        out = OmegaBackend(omega_cfg, self._mapping()).replay(tr)
        assert out.stats.srcbuf_hits == 3
        assert out.stats.sp_remote_accesses == 1

    def test_source_buffer_invalidated_at_barrier(self, omega_cfg):
        tr = make_trace(
            [0, 0], [0x1000, 0x1000], [FLAG_SRC_READ] * 2, AccessClass.VTXPROP,
            vertices=[2, 2], barriers=[1],
        )
        out = OmegaBackend(omega_cfg, self._mapping()).replay(tr)
        assert out.stats.srcbuf_hits == 0

    def test_source_buffer_disabled(self):
        cfg = SimConfig.scaled_omega(num_cores=4, use_source_buffer=False)
        tr = make_trace(
            [0] * 3, [0x1000] * 3, [FLAG_SRC_READ] * 3, AccessClass.VTXPROP,
            vertices=[2] * 3,
        )
        out = OmegaBackend(cfg, self._mapping()).replay(tr)
        assert out.srcbufs is None
        assert out.stats.srcbuf_hits == 0

    def test_local_reads_skip_source_buffer(self, omega_cfg):
        tr = make_trace(
            [0] * 3, [0x1000] * 3, [FLAG_SRC_READ] * 3, AccessClass.VTXPROP,
            vertices=[0] * 3,
        )
        out = OmegaBackend(omega_cfg, self._mapping()).replay(tr)
        assert out.stats.srcbuf_hits == 0
        assert out.stats.sp_local_accesses == 3

    def test_no_pisc_atomics_serialize_on_core(self):
        cfg = SimConfig.scaled_omega(num_cores=4, use_pisc=False)
        tr = make_trace(
            [0], [0x1000], [FLAG_WRITE | FLAG_ATOMIC], AccessClass.VTXPROP,
            vertices=[2],
        )
        out = OmegaBackend(cfg, ScratchpadMapping(4, 64, 2)).replay(tr)
        assert out.stats.atomics_on_cores == 1
        assert out.stats.sp_remote_accesses == 1

    def test_edgelist_goes_through_caches(self, omega_cfg):
        tr = make_trace([0, 0], [0x9000, 0x9000], [0, 0], AccessClass.EDGELIST)
        out = OmegaBackend(omega_cfg, self._mapping()).replay(tr)
        assert out.stats.l1_accesses == 2
        assert out.stats.sp_accesses == 0

    def test_pisc_occupancy_tracked(self, omega_cfg):
        tr = make_trace(
            [0] * 10, [0x1000] * 10, [FLAG_WRITE | FLAG_ATOMIC] * 10,
            AccessClass.VTXPROP, vertices=[0] * 10,
        )
        out = OmegaBackend(
            omega_cfg, self._mapping(), microcode_for_algorithm("pagerank")
        ).replay(tr)
        assert out.stats.pisc_occupancy[0] > 0
