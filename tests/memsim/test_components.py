"""Tests for coherence directory, DRAM, crossbar, mapping, buffers, PISC."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import DramConfig, InterconnectConfig, SimConfig
from repro.core.report import SimReport
from repro.errors import ConfigError, OffloadError
from repro.ligra.atomics import AtomicOp
from repro.ligra.trace import FLAG_ATOMIC, AccessClass, Trace
from repro.memsim.accounting import (
    LatencyLedger,
    account_offload,
    account_sp_plain,
)
from repro.memsim.backends import OmegaBackend
from repro.memsim.cachestate import CacheSystem
from repro.memsim.coherence import Directory
from repro.memsim.core_model import TimingResult, compute_timing
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.pisc import MICRO_OP_CYCLES, MicroOp, Microcode
from repro.memsim.prepass import precompute
from repro.memsim.replay import ReplayOutput
from repro.memsim.srcbuffer import SourceVertexBuffer
from repro.memsim.stats import MemStats


def cache_system(config):
    """A fresh cache path over ``config`` and the stats it charges."""
    stats = MemStats(num_cores=config.core.num_cores)
    system = CacheSystem(
        config, stats, DramModel(config.dram),
        Crossbar(config.interconnect, config.core.num_cores),
    )
    return system, stats


def bounds(config, stats):
    """The timing model's structural bounds for ``stats``."""
    out = ReplayOutput(stats=stats, dram=DramModel(config.dram), l1s=[],
                       l2_banks=[], directory=None)
    return compute_timing(out, config).bounds


class TestDirectory:
    def test_first_read_no_action(self):
        d = Directory()
        assert d.on_read(1, 0) == (0, False)

    def test_read_after_remote_write_forces_writeback(self):
        d = Directory()
        d.on_write(1, 0)
        invals, wb = d.on_read(1, 2)
        assert invals == 0
        assert wb
        # The writer is downgraded to a sharer: no owner is left.
        assert d._lines[1] == [0b0101, -1]

    def test_write_invalidates_sharers(self):
        d = Directory()
        d.on_read(1, 0)
        d.on_read(1, 1)
        d.on_read(1, 2)
        mask, _ = d.on_write(1, 3)
        assert mask == 0b0111
        assert d._lines[1] == [0b1000, 3]

    def test_write_by_sharer_excludes_self(self):
        d = Directory()
        d.on_read(1, 0)
        d.on_read(1, 1)
        mask, _ = d.on_write(1, 0)
        assert mask == 0b0010

    def test_repeat_write_same_core_free(self):
        d = Directory()
        d.on_write(1, 0)
        mask, wb = d.on_write(1, 0)
        assert mask == 0 and not wb

    def test_alternating_writers_ping_pong(self):
        d = Directory()
        d.on_write(1, 0)
        mask, wb = d.on_write(1, 1)
        assert mask == 0b01 and wb

    def test_eviction_clears_sharer(self):
        d = Directory()
        d.on_read(1, 0)
        d.on_eviction(1, 0)
        assert 1 not in d._lines

    def test_eviction_of_owner_clears_modified(self):
        d = Directory()
        d.on_write(1, 0)
        d.on_eviction(1, 0)
        # A later read by another core finds no modified copy to fetch.
        assert d.on_read(1, 1) == (0, False)

    def test_eviction_of_untracked_line(self):
        Directory().on_eviction(99, 0)  # must not raise


def dram_gbps(total_cycles, freq_ghz, dram_bytes):
    """``SimReport.dram_bandwidth_gbps`` over a stand-in report."""
    report = SimpleNamespace(
        timing=TimingResult(total_cycles, 0, (), {}, "cores", 0, 0, 0),
        config=SimpleNamespace(core=SimpleNamespace(freq_ghz=freq_ghz)),
        stats=MemStats(dram_read_bytes=dram_bytes),
    )
    return SimReport.dram_bandwidth_gbps.fget(report)


class TestDram:
    def test_read_latency_and_accounting(self):
        m = DramModel(DramConfig(latency_cycles=100))
        assert m.access() == 100
        # The closed policy keeps no row state.
        assert (m.row_hits, m.row_misses) == (0, 0)

    def test_write_accounting(self):
        # A posted write-back moves the open row like a read does.
        m = DramModel(DramConfig(page_policy="open", channels=1))
        m.access(0x10000)
        assert m.access(0x10040) == m.config.row_hit_cycles
        assert (m.row_hits, m.row_misses) == (1, 1)

    def test_bandwidth_bound(self):
        cfg = dataclasses.replace(
            SimConfig.scaled_baseline(num_cores=4),
            dram=DramConfig(channels=4, bytes_per_cycle_per_channel=6.0),
        )
        stats = MemStats(num_cores=4, dram_read_bytes=2400)
        assert bounds(cfg, stats)["dram_bandwidth"] == pytest.approx(100.0)

    def test_utilization_gbps(self):
        # 1000 bytes over 500 cycles at 2GHz = 4 GB/s.
        assert dram_gbps(500, 2.0, 1000) == pytest.approx(4.0)

    def test_utilization_zero_cycles(self):
        assert dram_gbps(0, 2.0, 1000) == 0.0


class TestCrossbar:
    def test_line_transfer(self):
        assert Crossbar(InterconnectConfig(), 16).transfer_latency() == 17
        # A read miss homed on a remote bank moves one 64 B line plus
        # its header across the crossbar.
        cfg = SimConfig.scaled_baseline(num_cores=4)
        system, stats = cache_system(cfg)
        lat = system.access(0, 2 << 6, write=False)  # bank 2
        assert stats.onchip_line_bytes == 64 + 8
        assert lat >= cfg.l1.latency_cycles + 17 + cfg.l2_per_core.latency_cycles

    def test_word_transfer_caps_payload(self):
        # A remote scratchpad word carries at most the 8-byte port's
        # payload, plus its header.
        cfg = SimConfig.scaled_omega(num_cores=2)
        trace = Trace(
            core=np.zeros(1, dtype=np.int16), addr=np.zeros(1, dtype=np.int64),
            size=np.full(1, 100, dtype=np.int16),
            access_class=np.full(1, int(AccessClass.VTXPROP), dtype=np.int8),
            flags=np.zeros(1, dtype=np.int8),
            vertex=np.zeros(1, dtype=np.int64),
        )
        stats = MemStats(num_cores=2)
        ctx = SimpleNamespace(config=cfg, stats=stats, ledger=LatencyLedger(2),
                              crossbar=Crossbar(cfg.interconnect, 2))
        account_sp_plain(ctx, trace, precompute(trace, cfg), np.arange(1),
                         np.ones(1, dtype=np.int64), np.zeros(1, dtype=bool))
        assert stats.onchip_word_bytes == 8 + 8

    def test_control_message(self):
        # Each invalidation is one header-only control message.
        system, stats = cache_system(SimConfig.scaled_baseline(num_cores=4))
        system.access(1, 0, write=False)
        system.access(0, 0, write=True)
        assert stats.coherence_invalidations == 1
        assert stats.onchip_word_bytes == 8

    def test_total_and_bound(self):
        cfg = dataclasses.replace(
            SimConfig.scaled_baseline(num_cores=4),
            interconnect=InterconnectConfig(bus_bytes=16),
        )
        stats = MemStats(num_cores=4, onchip_line_bytes=72)
        assert stats.onchip_traffic_bytes == 72
        assert bounds(cfg, stats)["crossbar"] == pytest.approx(72 / 64)


class TestMapping:
    def test_chunked_interleave(self):
        m = ScratchpadMapping(num_cores=4, hot_capacity=32, chunk_size=2)
        assert [m.home(v) for v in range(10)] == [0, 0, 1, 1, 2, 2, 3, 3, 0, 0]

    def test_block_partition_default(self):
        m = ScratchpadMapping(num_cores=4, hot_capacity=16)
        assert m.chunk_size == 4
        assert m.home(0) == 0
        assert m.home(15) == 3

    def test_line_indices_unique_per_pad(self):
        m = ScratchpadMapping(num_cores=4, hot_capacity=64, chunk_size=4)
        seen = {}
        for v in range(64):
            key = (m.home(v), m.line(v))
            assert key not in seen, f"collision at {v} with {seen.get(key)}"
            seen[key] = v

    def test_is_hot(self):
        m = ScratchpadMapping(num_cores=4, hot_capacity=10)
        assert m.is_hot(0)
        assert m.is_hot(9)
        assert not m.is_hot(10)
        assert not m.is_hot(-1)

    def test_is_hot_many(self):
        import numpy as np

        m = ScratchpadMapping(num_cores=2, hot_capacity=3)
        out = m.is_hot_many(np.array([0, 3, 2, -1]))
        assert out.tolist() == [True, False, True, False]

    def test_vertices_per_pad(self):
        m = ScratchpadMapping(num_cores=4, hot_capacity=10, chunk_size=1)
        assert m.vertices_per_pad() == 3

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            ScratchpadMapping(0, 10)
        with pytest.raises(ConfigError):
            ScratchpadMapping(4, -1)
        with pytest.raises(ConfigError):
            ScratchpadMapping(4, 10, chunk_size=0)


class TestSourceBuffer:
    def test_miss_then_hit(self):
        b = SourceVertexBuffer(4)
        assert not b.lookup(100)
        assert b.lookup(100)
        assert len(b) == 1

    def test_lru_eviction(self):
        b = SourceVertexBuffer(2)
        b.lookup(1)
        b.lookup(2)
        b.lookup(1)  # refresh 1
        b.lookup(3)  # evicts 2
        assert b.lookup(1)
        assert not b.lookup(2)

    def test_invalidate_all(self):
        b = SourceVertexBuffer(4)
        b.lookup(1)
        b.invalidate_all()
        assert len(b) == 0
        assert not b.lookup(1)

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            SourceVertexBuffer(0)

    def test_len(self):
        b = SourceVertexBuffer(4)
        b.lookup(1)
        b.lookup(2)
        assert len(b) == 2


class TestPisc:
    def _microcode(self):
        return Microcode(
            "test",
            (MicroOp.SP_READ, MicroOp.ALU, MicroOp.SP_WRITE),
            AtomicOp.FP_ADD,
        )

    def test_cycles_sum_micro_ops(self):
        assert self._microcode().cycles == sum(
            MICRO_OP_CYCLES[op]
            for op in (MicroOp.SP_READ, MicroOp.ALU, MicroOp.SP_WRITE)
        )

    def test_execute_requires_microcode(self):
        # With no microcode loaded a PISC has nothing to execute: OMEGA
        # runs hot atomics on the cores instead of offloading them.
        cfg = SimConfig.scaled_omega(num_cores=2)
        n = 8
        trace = Trace(
            core=np.arange(n, dtype=np.int16) % 2,
            addr=np.arange(n, dtype=np.int64) * 8,
            size=np.full(n, 8, dtype=np.int16),
            access_class=np.full(n, int(AccessClass.VTXPROP), dtype=np.int8),
            flags=np.full(n, FLAG_ATOMIC, dtype=np.int8),
            vertex=np.arange(n, dtype=np.int64) % 4,
        )
        mapping = ScratchpadMapping(2, 16)
        loaded = OmegaBackend(cfg, mapping, self._microcode()).replay(trace)
        empty = OmegaBackend(cfg, mapping, None).replay(trace)
        assert loaded.stats.pisc_ops == n
        assert empty.stats.pisc_ops == 0
        assert empty.stats.atomics_on_cores == n

    def test_execute_accumulates_occupancy(self):
        # Each offloaded op occupies its home pad for the microcode's
        # cycles; the occupancy accumulates across batches.
        cfg = SimConfig.scaled_omega(num_cores=2)
        stats = MemStats(num_cores=2)
        ctx = SimpleNamespace(config=cfg, stats=stats, ncores=2,
                              ledger=LatencyLedger(2))
        trace = SimpleNamespace(core=np.array([0, 1, 1, 0]))
        prepass = SimpleNamespace(atomic=np.ones(4, dtype=bool),
                                  nbytes=np.full(4, 8, dtype=np.int8))
        home = np.array([0, 1, 1, 1])
        local = home == trace.core
        microcode = self._microcode()
        for _ in range(2):
            account_offload(ctx, trace, prepass, np.arange(4), microcode,
                            home, local)
        assert stats.pisc_ops == 8
        assert stats.pisc_occupancy == [2 * microcode.cycles,
                                        6 * microcode.cycles]

    def test_empty_microcode_rejected(self):
        with pytest.raises(OffloadError):
            Microcode("empty", (), AtomicOp.FP_ADD)
