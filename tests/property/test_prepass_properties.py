"""Property tests: the vectorized pre-pass matches the scalar models.

The replay engine's batch stage must agree, event for event, with the
scalar implementations it replaced: region classification with
``AddressSpace.classify``, hot/home columns with ``ScratchpadMapping``'s
scalar methods, flag decoding with direct bit tests, and the O(1)
stream detector with a naive linear-scan reference of the same 16-head
round-robin scheme.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.ligra.trace import (
    AccessClass,
    AddressSpace,
    FLAG_ATOMIC,
    FLAG_SRC_READ,
    FLAG_UPDATE,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
)
from repro.memsim.geometry import BankGeometry
from repro.memsim.mapping import ScratchpadMapping
from repro.memsim.prepass import (
    StreamDetector,
    classify_regions,
    core_id_dtype,
    precompute,
)

CLASSES = (AccessClass.VTXPROP, AccessClass.EDGELIST, AccessClass.NGRAPH)


def _space(sizes):
    space = AddressSpace()
    for i, size in enumerate(sizes):
        space.allocate(f"r{i}", size, CLASSES[i % len(CLASSES)])
    return space


class TestClassifyRegions:
    @given(
        st.lists(st.integers(0, 3000), min_size=0, max_size=6),
        st.lists(st.integers(0, 1 << 22), min_size=1, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_classify(self, sizes, offsets):
        space = _space(sizes)
        addrs = np.asarray(offsets, dtype=np.int64) + 0x1000_0000 - 4096
        got = classify_regions(space.regions, addrs)
        for addr, cls in zip(addrs.tolist(), got.tolist()):
            assert cls == int(space.classify(addr))

    def test_first_region_wins_overlap(self):
        from repro.ligra.trace import Region

        regions = [
            Region("a", 0, 100, AccessClass.VTXPROP),
            Region("b", 50, 100, AccessClass.EDGELIST),
        ]
        got = classify_regions(regions, np.array([60]))
        assert got[0] == int(AccessClass.VTXPROP)


def _random_trace(rng, n, num_cores, space):
    builder = TraceBuilder()
    regions = space.regions
    for _ in range(n):
        region = regions[rng.integers(0, len(regions))]
        addr = int(region.base) + int(
            rng.integers(0, max(1, region.size + 64))
        )
        builder.append(
            core=int(rng.integers(0, num_cores)),
            addr=np.array([addr]),
            size=int(rng.integers(1, 17)),
            access_class=region.access_class,
            write=bool(rng.integers(0, 2)),
            atomic=bool(rng.integers(0, 2)),
            src_read=bool(rng.integers(0, 2)),
            update=bool(rng.integers(0, 2)),
            vertex=int(rng.integers(-1, 500)),
        )
    return builder.build()


class TestPrecompute:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_models(self, seed):
        rng = np.random.default_rng(seed)
        config = SimConfig.scaled_omega()
        num_cores = config.core.num_cores
        space = _space([512, 2048, 1024])
        trace = _random_trace(rng, 60, num_cores, space)
        mapping = ScratchpadMapping(num_cores, hot_capacity=128,
                                    chunk_size=32)
        pre = precompute(trace, config, mapping=mapping)
        geo = BankGeometry(num_cores, config.l1.line_bytes)

        for i in range(trace.num_events):
            flags = int(trace.flags[i])
            assert pre.write[i] == bool(flags & FLAG_WRITE)
            assert pre.atomic[i] == bool(flags & FLAG_ATOMIC)
            assert pre.src_read[i] == bool(flags & FLAG_SRC_READ)
            assert pre.update[i] == bool(flags & FLAG_UPDATE)
            line = geo.line_of(int(trace.addr[i]))
            assert pre.lines[i] == line
            assert pre.banks[i] == geo.bank_of(line)
            assert geo.bank_keys_of(pre.lines)[i] == geo.bank_key_of(line)
            assert pre.nbytes[i] == min(int(trace.size[i]), 8)
            vertex = int(trace.vertex[i])
            is_vtx = (
                int(trace.access_class[i]) == int(AccessClass.VTXPROP)
            )
            assert pre.vtxprop[i] == is_vtx
            assert pre.hot[i] == (is_vtx and mapping.is_hot(vertex))
            assert pre.home[i] == mapping.home(vertex)
            assert pre.local[i] == (
                mapping.home(vertex) == int(trace.core[i])
            )

    def test_no_mapping_gives_inert_columns(self):
        config = SimConfig.scaled_baseline()
        space = _space([256])
        rng = np.random.default_rng(0)
        trace = _random_trace(rng, 20, config.core.num_cores, space)
        pre = precompute(trace, config, mapping=None)
        assert not pre.hot.any()
        assert (pre.home == -1).all()
        assert not pre.local.any()
        for col in (pre.hot, pre.home, pre.local):
            assert len(col) == trace.num_events
            assert not col.flags.writeable


class TestColumnWidths:
    """Each prepass column is only as wide as its range."""

    @pytest.mark.parametrize("num_cores,dtype", [
        (16, np.int8), (128, np.int8), (256, np.int16),
    ])
    def test_core_id_columns(self, num_cores, dtype):
        config = SimConfig.scaled_omega(num_cores=num_cores)
        line_bytes = config.l1.line_bytes
        # Every core id appears as a core, a home bank and a pad home,
        # so a column too narrow for the top id would wrap.
        n = 4 * num_cores
        ids = np.arange(n) % num_cores
        trace = Trace(
            core=ids.astype(np.int16),
            addr=np.arange(n, dtype=np.int64) * line_bytes,
            size=np.full(n, 16, dtype=np.int16),
            access_class=np.full(n, int(AccessClass.VTXPROP),
                                 dtype=np.int8),
            flags=np.zeros(n, dtype=np.int8),
            vertex=np.arange(n, dtype=np.int64)[::-1].copy(),
        )
        mapping = ScratchpadMapping(num_cores, hot_capacity=n,
                                    chunk_size=1)
        assert core_id_dtype(num_cores) == dtype
        pre = precompute(trace, config, mapping=mapping)
        for col in (pre.banks, pre.home):
            assert col.dtype == dtype
            assert int(col.max()) == num_cores - 1
        assert (pre.banks == ids).all()
        assert (pre.home == mapping.home_many(trace.vertex)).all()
        assert pre.nbytes.dtype == np.int8
        assert (pre.nbytes == 8).all()
        inert = precompute(trace, config, mapping=None)
        assert inert.home.dtype == dtype
        assert (inert.banks == ids).all()


class _NaiveStreamDetector:
    """Reference 16-head detector: literal linear scan, as in the seed."""

    def __init__(self, num_cores, num_heads=16):
        self.num_heads = num_heads
        self._heads = [[-2] * num_heads for _ in range(num_cores)]
        self._next = [0] * num_cores

    def observe(self, core, line):
        heads = self._heads[core]
        for slot in range(self.num_heads):
            if heads[slot] + 1 == line:
                heads[slot] = line
                return True
        slot = self._next[core]
        heads[slot] = line
        self._next[core] = (slot + 1) % self.num_heads
        return False


class TestStreamDetector:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 40)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_reference(self, events):
        fast = StreamDetector(num_cores=4)
        naive = _NaiveStreamDetector(num_cores=4)
        for core, line in events:
            assert fast.observe(core, line) == naive.observe(core, line)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 40)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_flags_equals_observe(self, events):
        seq = StreamDetector(num_cores=4)
        batch = StreamDetector(num_cores=4)
        cores = np.array([c for c, _ in events])
        lines = np.array([ln for _, ln in events])
        expected = np.array(
            [seq.observe(c, ln) for c, ln in events], dtype=bool
        )
        got = batch.flags(cores, lines)
        assert (got == expected).all()

    def test_sequential_run_prefetches_after_first(self):
        det = StreamDetector(num_cores=1)
        flags = [det.observe(0, line) for line in range(10)]
        assert flags[0] is False
        assert all(flags[1:])
