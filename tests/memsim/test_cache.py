"""Tests for the set-associative LRU cache."""

import pytest

from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.memsim.cache import Cache


def make_cache(size=1024, ways=4, line=64):
    return Cache(CacheConfig(size_bytes=size, ways=ways, line_bytes=line))


def access(c, addr, write=False):
    """Access a byte address."""
    return c.access_line(c.line_of(addr), write)


def resident(c, line):
    """Whether ``line`` is in its set (reads the state, not the LRU)."""
    return line in c._sets[line % c._num_sets]


class TestGeometry:
    def test_num_sets(self):
        c = CacheConfig(size_bytes=1024, ways=4, line_bytes=64)
        assert c.num_sets == 4

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=100, ways=3, line_bytes=64)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, ways=1)

    def test_line_of(self):
        c = make_cache()
        assert c.line_of(0) == 0
        assert c.line_of(63) == 0
        assert c.line_of(64) == 1


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        hit, _ = access(c, 0x100)
        assert not hit
        hit, _ = access(c, 0x100)
        assert hit

    def test_same_line_different_words_hit(self):
        c = make_cache()
        access(c, 0x100)
        hit, _ = access(c, 0x108)
        assert hit

    def test_counts(self):
        c = make_cache()
        hits = [access(c, addr)[0] for addr in (0, 0, 64)]
        assert hits == [False, True, False]


class TestLru:
    def test_eviction_order(self):
        # 1 set x 2 ways: cache of 2 lines.
        c = make_cache(size=128, ways=2)
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)  # 0 is now MRU
        c.access_line(2)  # evicts 1
        assert resident(c, 0)
        assert not resident(c, 1)

    def test_set_isolation(self):
        # 2 sets x 1 way: even/odd lines map to different sets.
        c = make_cache(size=128, ways=1)
        c.access_line(0)
        c.access_line(1)
        assert resident(c, 0)
        assert resident(c, 1)
        c.access_line(2)  # same set as 0
        assert not resident(c, 0)
        assert resident(c, 1)

    def test_occupancy_bounded(self):
        c = make_cache(size=256, ways=2)  # 4 lines total
        for line in range(100):
            c.access_line(line)
        assert sum(len(s) for s in c._sets) <= 4


class TestDirtyTracking:
    def test_write_marks_dirty_and_reports_on_eviction(self):
        c = make_cache(size=64, ways=1)  # single line
        c.access_line(0, write=True)
        hit, victim = c.access_line(1)  # evict line 0
        assert victim == 0

    def test_clean_eviction_reports_none(self):
        c = make_cache(size=64, ways=1)
        c.access_line(0, write=False)
        _, victim = c.access_line(1)
        assert victim is None
        assert not resident(c, 0)

    def test_write_hit_upgrades_to_dirty(self):
        c = make_cache(size=64, ways=1)
        c.access_line(0, write=False)
        c.access_line(0, write=True)
        _, victim = c.access_line(1)
        assert victim == 0


class TestInvalidate:
    def test_invalidate_present(self):
        c = make_cache()
        c.access_line(5)
        assert c.invalidate_line(5)
        assert not resident(c, 5)

    def test_invalidate_absent(self):
        assert not make_cache().invalidate_line(5)
