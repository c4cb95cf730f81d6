"""Tests for the edgeMap/vertexMap engine and its trace emission."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.graph.csr import from_edges
from repro.ligra.atomics import AtomicOp, scatter_atomic
from repro.ligra.framework import LigraEngine
from repro.ligra.trace import AccessClass, FLAG_ATOMIC, FLAG_SRC_READ, FLAG_WRITE
from repro.ligra.vertex_subset import VertexSubset


@pytest.fixture()
def engine(tiny_graph):
    return LigraEngine(tiny_graph, num_cores=2, chunk_size=2)


class TestConstruction:
    def test_bad_num_cores(self, tiny_graph):
        with pytest.raises(TraceError):
            LigraEngine(tiny_graph, num_cores=0)

    def test_bad_chunk_size(self, tiny_graph):
        with pytest.raises(TraceError):
            LigraEngine(tiny_graph, chunk_size=0)

    def test_edge_regions_allocated(self, engine):
        names = [r.name for r in engine.space.regions]
        for expected in ("out_offsets", "out_targets", "in_offsets",
                         "in_sources", "nGraphData", "active_bits"):
            assert expected in names

    def test_weights_region_only_when_weighted(
        self, tiny_graph, small_powerlaw_weighted
    ):
        unweighted = LigraEngine(tiny_graph)
        weighted = LigraEngine(small_powerlaw_weighted)
        assert all(r.name != "edge_weights" for r in unweighted.space.regions)
        assert any(r.name == "edge_weights" for r in weighted.space.regions)


class TestAllocProp:
    def test_vtxprop_registered(self, engine):
        p = engine.alloc_prop("rank", np.float64)
        assert p in engine.vtx_props
        assert engine.space.classify(p.start_addr) is AccessClass.VTXPROP

    def test_cache_resident_prop(self, engine):
        p = engine.alloc_prop("temp", np.float64, vtxprop=False)
        assert p not in engine.vtx_props
        assert engine.space.classify(p.start_addr) is AccessClass.NGRAPH

    def test_bytes_per_vertex_excludes_active_bits(self, engine):
        engine.alloc_prop("a", np.float64)
        engine.alloc_prop("b", np.int32)
        assert engine.vtxprop_bytes_per_vertex() == 12

    def test_struct_alloc(self, engine):
        props = engine.alloc_struct("s", [("x", np.int32), ("y", np.int32)])
        assert engine.vtxprop_bytes_per_vertex() == 8
        assert all(p in engine.vtx_props for p in props)


class TestScheduling:
    def test_chunked_positions(self, tiny_graph):
        e = LigraEngine(tiny_graph, num_cores=2, chunk_size=2)
        cores = e.cores_for_positions(np.arange(8), 8)
        assert cores.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_block_positions(self, tiny_graph):
        e = LigraEngine(tiny_graph, num_cores=2, chunk_size=None)
        cores = e.cores_for_positions(np.arange(8), 8)
        assert cores.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_edge_balanced(self, tiny_graph):
        e = LigraEngine(tiny_graph, num_cores=4)
        cores = e.cores_for_edges(8)
        assert cores.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_edges_fewer_than_cores(self, tiny_graph):
        e = LigraEngine(tiny_graph, num_cores=8)
        cores = e.cores_for_edges(3)
        assert max(cores) < 8

    def test_empty(self, engine):
        assert len(engine.cores_for_edges(0)) == 0
        assert len(engine.cores_for_positions(np.zeros(0, dtype=np.int64), 0)) == 0


class TestEdgeMapSparse:
    def test_functional_result(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        seen = {}

        def apply_fn(srcs, dsts, weights):
            seen["pairs"] = set(zip(srcs.tolist(), dsts.tolist()))
            assert weights is None
            return np.unique(dsts)

        frontier = VertexSubset(6, ids=np.array([0]))
        out = engine.edge_map(frontier, apply_fn, direction="out")
        assert seen["pairs"] == {(0, 1), (0, 2)}
        assert list(out) == [1, 2]

    def test_remove_duplicates_flag_gives_same_frontier(self, tiny_graph):
        # apply_fn hands back unsorted, repeated ids; the frontier is a
        # set either way.
        def apply_fn(_srcs, dsts, _weights):
            return np.concatenate([dsts[::-1], dsts])

        outs = []
        for remove_duplicates in (True, False):
            engine = LigraEngine(tiny_graph, num_cores=2)
            outs.append(engine.edge_map(
                VertexSubset(6, ids=np.array([0, 1])), apply_fn,
                direction="out", remove_duplicates=remove_duplicates,
            ))
        assert outs[0] == outs[1]
        assert outs[1].to_sparse().tolist() == [1, 2]

    def test_trace_event_counts(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        prop = engine.alloc_prop("p", np.float64)

        def apply_fn(srcs, dsts, _):
            return np.unique(dsts)

        frontier = VertexSubset(6, ids=np.array([0, 1]))
        engine.edge_map(
            frontier, apply_fn,
            src_props=[prop], dst_props=[prop],
            direction="out", output="none",
        )
        tr = engine.build_trace()
        # 2 offset reads + 3 target reads (deg 2 + 1) + 3 src reads +
        # 3 atomic RMWs + nGraph bookkeeping.
        assert tr.count(access_class=AccessClass.EDGELIST) == 5
        assert tr.count(atomic=True) == 3
        srcs = (tr.flags & FLAG_SRC_READ) != 0
        assert int(srcs.sum()) == 3

    def test_weights_passed(self, small_powerlaw_weighted):
        engine = LigraEngine(small_powerlaw_weighted, num_cores=2)
        got = {}

        def apply_fn(srcs, dsts, weights):
            got["w"] = weights
            return np.zeros(0, dtype=np.int64)

        engine.edge_map(
            VertexSubset(small_powerlaw_weighted.num_vertices, ids=np.array([0])),
            apply_fn, direction="out", use_weights=True,
        )
        assert got["w"] is not None
        assert len(got["w"]) == small_powerlaw_weighted.out_degree(0)

    def test_weights_on_unweighted_rejected(self, engine):
        with pytest.raises(TraceError):
            engine.edge_map(
                VertexSubset(6, ids=np.array([0])),
                lambda s, d, w: d,
                use_weights=True,
            )

    def test_empty_frontier(self, engine):
        out = engine.edge_map(
            VertexSubset.empty(6), lambda s, d, w: d, direction="out"
        )
        assert len(out) == 0


class TestEdgeMapDense:
    def test_dense_filters_frontier_sources(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        seen = {}

        def apply_fn(srcs, dsts, _):
            seen["pairs"] = set(zip(srcs.tolist(), dsts.tolist()))
            return np.unique(dsts)

        frontier = VertexSubset(6, ids=np.array([3, 4]))
        engine.edge_map(frontier, apply_fn, direction="in")
        assert seen["pairs"] == {(3, 2), (4, 2)}

    def test_dense_writes_not_atomic(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        prop = engine.alloc_prop("p", np.int32)
        engine.edge_map(
            VertexSubset.full(6),
            lambda s, d, w: np.unique(d),
            dst_props=[prop],
            direction="in",
            output="none",
        )
        tr = engine.build_trace()
        assert tr.count(atomic=True) == 0
        assert tr.count(access_class=AccessClass.VTXPROP, write=True) > 0

    def test_auto_direction_switches(self, small_powerlaw):
        engine = LigraEngine(small_powerlaw, num_cores=2)
        engine.edge_map(
            VertexSubset.full(small_powerlaw.num_vertices),
            lambda s, d, w: np.zeros(0, dtype=np.int64),
            direction="auto",
        )
        assert engine.stats.dense_calls == 1
        # A single low-degree vertex stays below the |E|/20 threshold.
        quiet = int(small_powerlaw.out_degrees().argmin())
        engine.edge_map(
            VertexSubset(small_powerlaw.num_vertices, ids=np.array([quiet])),
            lambda s, d, w: np.zeros(0, dtype=np.int64),
            direction="auto",
        )
        assert engine.stats.sparse_calls == 1

    def test_dense_frontier_reads_are_ngraph(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        engine.edge_map(
            VertexSubset.full(6),
            lambda s, d, w: np.zeros(0, dtype=np.int64),
            direction="in",
            output="none",
        )
        tr = engine.build_trace()
        assert tr.count(access_class=AccessClass.NGRAPH) >= tiny_graph.num_edges


class TestEdgeMapValidation:
    def test_bad_direction(self, engine):
        with pytest.raises(TraceError):
            engine.edge_map(VertexSubset.empty(6), lambda s, d, w: d,
                            direction="sideways")

    def test_bad_output(self, engine):
        with pytest.raises(TraceError):
            engine.edge_map(VertexSubset.empty(6), lambda s, d, w: d,
                            output="maybe")

    def test_barrier_marked_per_edge_map(self, engine):
        engine.edge_map(VertexSubset(6, ids=np.array([0])),
                        lambda s, d, w: np.unique(d), direction="out")
        engine.edge_map(VertexSubset(6, ids=np.array([1])),
                        lambda s, d, w: np.unique(d), direction="out")
        tr = engine.build_trace()
        assert len(tr.barriers) >= 1


class TestVertexMap:
    def test_applies_function(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        prop = engine.alloc_prop("x", np.int64)

        def bump(ids):
            prop.values[ids] += 1

        engine.vertex_map(VertexSubset.full(6), bump, write_props=[prop])
        assert prop.values.tolist() == [1] * 6

    def test_filter_semantics(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        out = engine.vertex_map(
            VertexSubset.full(6), lambda ids: ids[ids % 2 == 0]
        )
        assert list(out) == [0, 2, 4]

    def test_trace_reads_and_writes(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        p = engine.alloc_prop("x", np.int64)
        engine.vertex_map(
            VertexSubset.full(6), None, read_props=[p], write_props=[p]
        )
        tr = engine.build_trace()
        assert tr.count(access_class=AccessClass.VTXPROP, write=False) == 6
        assert tr.count(access_class=AccessClass.VTXPROP, write=True) == 6


class TestActiveListTrace:
    def test_dense_output_writes_bits(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        engine.edge_map(
            VertexSubset.full(6),
            lambda s, d, w: np.unique(d),
            direction="out",
            output="dense",
        )
        tr = engine.build_trace()
        bits = (tr.access_class == int(AccessClass.VTXPROP)) & (
            (tr.flags & FLAG_WRITE) != 0
        )
        assert int(bits.sum()) > 0

    def test_sparse_output_writes_list(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        before = engine._sparse_list_cursor
        engine.edge_map(
            VertexSubset(6, ids=np.array([0])),
            lambda s, d, w: np.unique(d),
            direction="out",
            output="sparse",
        )
        assert engine._sparse_list_cursor != before


class TestRawHooks:
    def test_record_offset_and_adjacency(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        engine.record_offset_reads(0, np.array([0, 1]))
        engine.record_adjacency_reads(0, np.array([0, 1, 2]))
        tr = engine.build_trace()
        assert tr.count(access_class=AccessClass.EDGELIST) == 5

    def test_record_prop_access(self, tiny_graph):
        engine = LigraEngine(tiny_graph, num_cores=2)
        p = engine.alloc_prop("c", np.int64)
        engine.record_prop_access(1, p, np.array([2, 3]), write=True, atomic=True)
        tr = engine.build_trace()
        assert tr.count(atomic=True) == 2
        assert tr.vertex.tolist()[-2:] == [2, 3]
