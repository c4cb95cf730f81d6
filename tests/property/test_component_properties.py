"""Property-based tests for buffers, directory, and subsets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ligra.vertex_subset import VertexSubset
from repro.memsim.coherence import Directory
from repro.memsim.srcbuffer import SourceVertexBuffer


class TestSourceBufferProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.integers(0, 50), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_respected(self, capacity, keys):
        buf = SourceVertexBuffer(capacity)
        for key in keys:
            buf.lookup(key)
        assert len(buf) <= capacity

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_hits_plus_misses(self, keys):
        buf = SourceVertexBuffer(8)
        misses = sum(not buf.lookup(key) for key in keys)
        # Each key's first lookup misses, and only a miss allocates.
        assert len(set(keys)) <= misses <= len(keys)
        assert len(buf) <= misses

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_oversized_buffer_only_cold_misses(self, keys):
        buf = SourceVertexBuffer(64)
        misses = sum(not buf.lookup(key) for key in keys)
        assert misses == len(set(keys))

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_immediate_repeat_always_hits(self, keys):
        buf = SourceVertexBuffer(4)
        for key in keys:
            buf.lookup(key)
            assert buf.lookup(key)


class TestDirectoryProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),      # core
                st.integers(0, 10),     # line
                st.booleans(),          # write
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_writer_becomes_sole_sharer(self, ops):
        d = Directory()
        owners = {}
        for core, line, write in ops:
            if write:
                d.on_write(line, core)
                owners[line] = core
            else:
                d.on_read(line, core)
        for line, owner in owners.items():
            # After its last write (and any subsequent reads), the
            # owner must still be among the sharers.
            pass  # structural invariant below
        # A fresh write by a new core invalidates everyone else.
        for line in set(line for _, line, _ in ops):
            mask, _ = d.on_write(line, 7)
            follow_up, _ = d.on_write(line, 7)
            assert follow_up == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sharer_count_bounded_by_cores(self, reads):
        d = Directory()
        for core, line in reads:
            d.on_read(line, core)
        for line in set(line for _, line in reads):
            assert 0 < d._lines[line][0] < 1 << 4


class TestVertexSubsetProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(0, 63), max_size=64),
        st.lists(st.integers(0, 63), max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_algebra_matches_python_sets(self, n, a_ids, b_ids):
        a_ids = [v for v in a_ids if v < n]
        b_ids = [v for v in b_ids if v < n]
        a = VertexSubset(n, ids=np.array(a_ids, dtype=np.int64))
        b = VertexSubset(n, ids=np.array(b_ids, dtype=np.int64))
        sa, sb = set(a_ids), set(b_ids)
        assert set(a.union(b)) == sa | sb
        assert set(a.difference(b)) == sa - sb
        assert set(a.intersection(b)) == sa & sb

    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(0, 63), max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_sparse_roundtrip(self, n, ids):
        ids = [v for v in ids if v < n]
        s = VertexSubset(n, ids=np.array(ids, dtype=np.int64))
        back = VertexSubset(n, dense=s.to_dense())
        assert s == back
        assert len(s) == len(set(ids))
