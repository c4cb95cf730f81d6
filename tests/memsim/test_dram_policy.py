"""Tests for the DRAM page-policy model."""

import pytest

from repro.config import DramConfig
from repro.errors import ConfigError
from repro.memsim.dram import DramModel


class TestClosedPolicy:
    def test_flat_latency(self):
        m = DramModel(DramConfig(page_policy="closed"))
        assert m.access(0) == 100
        assert m.access(0) == 100
        assert m.row_hits == 0

    def test_no_addr_defaults_to_flat(self):
        m = DramModel(DramConfig(page_policy="open"))
        assert m.access() == 100


class TestOpenPolicy:
    def test_first_access_misses_row(self):
        m = DramModel(DramConfig(page_policy="open"))
        assert m.access(0x10000) == 120
        assert m.row_misses == 1

    def test_same_row_hits(self):
        m = DramModel(DramConfig(page_policy="open", channels=1))
        m.access(0x10000)
        assert m.access(0x10040) == 60
        assert m.row_hits == 1

    def test_line_interleave_across_channels(self):
        # Consecutive lines stripe across channels: with 4 channels the
        # next line lands on a different channel's (cold) row buffer.
        m = DramModel(DramConfig(page_policy="open", channels=4))
        m.access(0x10000)
        assert m.access(0x10040) == 120
        # Coming back to the first channel's stripe hits its open row.
        assert m.access(0x10000 + 4 * 64) == 60

    def test_row_conflict(self):
        m = DramModel(DramConfig(page_policy="open", channels=1))
        m.access(0)
        assert m.access(DramConfig().row_bytes) == 120

    def test_channels_track_independent_rows(self):
        m = DramModel(DramConfig(page_policy="open", channels=2))
        m.access(0)        # channel 0
        m.access(64)       # channel 1
        # Both rows now open; repeats hit.
        assert m.access(0) == 60
        assert m.access(64) == 60

    def test_row_hit_rate(self):
        m = DramModel(DramConfig(page_policy="open", channels=1))
        m.access(0)
        m.access(64)
        assert m.row_hit_rate == pytest.approx(0.5)


class TestHybridPolicy:
    def test_random_range_gets_closed_latency(self):
        m = DramModel(DramConfig(page_policy="hybrid", channels=1))
        m.set_random_ranges([(0x1000, 0x2000)])
        assert m.access(0x1000) == 100
        assert m.access(0x1040) == 100  # still closed, no row state

    def test_other_ranges_get_open_behaviour(self):
        m = DramModel(DramConfig(page_policy="hybrid", channels=1))
        m.set_random_ranges([(0x1000, 0x2000)])
        m.access(0x90000)
        assert m.access(0x90040) == 60

    def test_random_accesses_do_not_thrash_rows(self):
        """vtxProp accesses must not evict the streams' open rows."""
        m = DramModel(DramConfig(page_policy="hybrid", channels=1))
        m.set_random_ranges([(0x1000, 0x2000)])
        m.access(0x90000)  # stream opens its row
        m.access(0x1000)   # random access, served closed
        assert m.access(0x90040) == 60  # stream row still open


class TestValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError, match="page_policy"):
            DramConfig(page_policy="adaptive")

    def test_writes_share_row_state(self):
        m = DramModel(DramConfig(page_policy="open", channels=1))
        m.access(0)  # a demand read opens the row
        assert m.access(64) == 60  # the posted write-back finds it open
