"""Property-based tests for cache, mapping and trace invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.ligra.trace import AccessClass, TraceBuilder
from repro.memsim.cache import Cache
from repro.memsim.mapping import ScratchpadMapping


class TestCacheInvariants:
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=300),
        st.sampled_from([(256, 1), (256, 2), (512, 4)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines, geometry):
        size, ways = geometry
        cache = Cache(CacheConfig(size_bytes=size, ways=ways))
        for line in lines:
            cache.access_line(line)
        assert sum(len(s) for s in cache._sets) <= size // 64

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache(CacheConfig(size_bytes=512, ways=2))
        misses = len(lines) - sum(cache.access_line(line)[0]
                                  for line in lines)
        # Each line's first access misses, and only a miss allocates.
        assert len(set(lines)) <= misses
        assert sum(len(s) for s in cache._sets) <= misses

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_small_working_set_always_fits(self, lines):
        """Four distinct lines in a 4-line fully-associative set never
        conflict: only cold misses occur."""
        cache = Cache(CacheConfig(size_bytes=256, ways=4))
        misses = 0
        for line in lines:
            misses += not cache.access_line(line * 4)[0]  # force 1 set
        # With 4 ways and at most 4 distinct keys, misses == distinct keys.
        distinct = len({line * 4 for line in lines})
        assert misses == distinct

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_replay_determinism(self, ops):
        a = Cache(CacheConfig(size_bytes=256, ways=2))
        b = Cache(CacheConfig(size_bytes=256, ways=2))
        for line, write in ops:
            assert a.access_line(line, write) == b.access_line(line, write)


class TestMappingInvariants:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_pad_line_pairs_unique(self, cores, capacity, chunk):
        m = ScratchpadMapping(cores, capacity, chunk_size=chunk)
        seen = set()
        for v in range(capacity):
            key = (m.home(v), m.line(v))
            assert key not in seen
            seen.add(key)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_home_in_range(self, cores, capacity, chunk):
        m = ScratchpadMapping(cores, capacity, chunk_size=chunk)
        homes = m.home_many(np.arange(capacity))
        if capacity:
            assert homes.min() >= 0
            assert homes.max() < cores

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=8, max_value=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_pads_balanced(self, cores, capacity):
        m = ScratchpadMapping(cores, capacity, chunk_size=1)
        counts = np.bincount(
            m.home_many(np.arange(capacity)), minlength=cores
        )
        assert counts.max() - counts.min() <= 1


class TestTraceInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 1000)),
            min_size=1,
            max_size=100,
        ),
        st.lists(st.integers(0, 99), max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_interleave_is_permutation(self, events, barrier_positions):
        # build() reorders within barrier spans only: each span holds
        # exactly the events appended between its barriers.
        tb = TraceBuilder()
        cuts = set(barrier_positions)
        for i, (core, addr) in enumerate(events):
            if i in cuts:
                tb.mark_barrier()
            tb.append(core, np.array([addr]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        bounds = [0, *sorted(b for b in cuts if b < len(events)),
                  len(events)]
        assert tr.barriers.tolist() == bounds[1:-1]
        got = list(zip(tr.core.tolist(), tr.addr.tolist()))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert sorted(got[lo:hi]) == sorted(events[lo:hi])

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 1000)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_interleave_preserves_per_core_order(self, events):
        tb = TraceBuilder()
        for core, addr in events:
            tb.append(core, np.array([addr]), 8, AccessClass.VTXPROP)
        tr = tb.build()
        for core in range(4):
            orig = [addr for c, addr in events if c == core]
            assert tr.addr[tr.core == core].tolist() == orig
