"""Vertex-centric edgeMap/vertexMap engine with memory-trace emission.

This is the reproduction's Ligra substrate (Shun & Blelloch 2013, as
used by the paper): algorithms are expressed as ``edge_map`` /
``vertex_map`` calls over :class:`~repro.ligra.vertex_subset.VertexSubset`
frontiers. The engine

- performs the *functional* computation (delegated to the algorithm's
  vectorized ``apply`` callback, which uses
  :func:`repro.ligra.atomics.scatter_atomic` for sequential-equivalent
  atomic semantics),
- implements Ligra's **direction optimization** (sparse forward
  traversal over out-edges vs. dense backward traversal over
  in-edges, switching on the |frontier|+out-edges > |E|/20 heuristic),
- assigns every access to a core with an OpenMP-style static schedule
  (configurable chunk size — the knob behind the paper's Section V-D
  "reconfigurable scratchpad mapping" experiment), and
- emits the columnar memory trace the ``repro.memsim`` hierarchy
  replays: edgeList reads, source-vtxProp reads (source-buffer
  eligible), destination atomic RMWs, active-list maintenance, and
  nGraphData bookkeeping.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.obs import get_registry, get_tracer
from repro.graph.csr import CSRGraph
from repro.ligra.props import VertexProp, alloc_prop, alloc_struct_props
from repro.ligra.trace import (
    AccessClass,
    AddressSpace,
    Trace,
    TraceBuilder,
    WORD_BYTES,
)
from repro.ligra.vertex_subset import VertexSubset

__all__ = ["LigraEngine", "EdgeMapStats"]

_LOG = logging.getLogger("repro.ligra.framework")

#: Apply callback signature: (srcs, dsts, weights_or_None) -> changed vertex ids.
ApplyFn = Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]


class EdgeMapStats:
    """Running counters the characterization figures read off the engine."""

    def __init__(self) -> None:
        self.edge_map_calls = 0
        self.vertex_map_calls = 0
        self.edges_processed = 0
        self.dense_calls = 0
        self.sparse_calls = 0
        self.iterations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeMapStats(edge_maps={self.edge_map_calls},"
            f" edges={self.edges_processed}, dense={self.dense_calls},"
            f" sparse={self.sparse_calls})"
        )


def _expand_edges(
    offsets: np.ndarray, neighbors: np.ndarray, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand CSR adjacency of ``active`` vertices into flat edge arrays.

    Returns ``(srcs, dsts, pos)`` where ``pos`` is each edge's index in
    the CSR ``neighbors`` array (needed to compute its byte address).
    For the backward direction pass in_offsets/in_sources; "srcs" are
    then the owning (destination) vertices and "dsts" the in-neighbors.
    """
    degs = offsets[active + 1] - offsets[active]
    total = int(degs.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    starts = np.repeat(offsets[active], degs)
    intra = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(degs) - degs, degs
    )
    pos = starts + intra
    srcs = np.repeat(active, degs)
    dsts = neighbors[pos]
    return srcs, dsts, pos


class LigraEngine:
    """Executes vertex-centric algorithms over a graph, emitting a trace.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.csr.CSRGraph`.
    num_cores:
        Cores of the simulated CMP (paper setup: 16).
    chunk_size:
        OpenMP static-schedule chunk size in vertices. ``None`` means
        block partitioning (``ceil(n / num_cores)`` contiguous chunks),
        which is also what OMEGA's scratchpad mapping defaults to.
    trace:
        Disable to run functionally with zero trace overhead, or pass
        a :class:`~repro.ligra.trace.TraceBuilder` instance (e.g. a
        spooling builder) for the engine to append into.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_cores: int = 16,
        chunk_size: Optional[int] = None,
        trace: Union[bool, TraceBuilder] = True,
    ) -> None:
        if num_cores <= 0:
            raise TraceError(f"num_cores must be > 0, got {num_cores}")
        if chunk_size is not None and chunk_size <= 0:
            raise TraceError(f"chunk_size must be > 0, got {chunk_size}")
        self.graph = graph
        self.num_cores = num_cores
        self.chunk_size = chunk_size
        self.space = AddressSpace()
        self.trace_builder = (
            trace if isinstance(trace, TraceBuilder)
            else TraceBuilder(enabled=bool(trace))
        )
        self.stats = EdgeMapStats()

        n, m = graph.num_vertices, graph.num_edges
        self._out_offsets_region = self.space.allocate(
            "out_offsets", (n + 1) * WORD_BYTES, AccessClass.EDGELIST
        )
        self._out_targets_region = self.space.allocate(
            "out_targets", m * WORD_BYTES, AccessClass.EDGELIST
        )
        self._in_offsets_region = self.space.allocate(
            "in_offsets", (n + 1) * WORD_BYTES, AccessClass.EDGELIST
        )
        self._in_sources_region = self.space.allocate(
            "in_sources", m * WORD_BYTES, AccessClass.EDGELIST
        )
        self._weights_region = (
            self.space.allocate("edge_weights", m * WORD_BYTES, AccessClass.EDGELIST)
            if graph.weighted
            else None
        )
        self._ngraph_region = self.space.allocate(
            "nGraphData", 1 << 20, AccessClass.NGRAPH
        )
        self._sparse_list_region = self.space.allocate(
            "sparse_active_list", n * WORD_BYTES, AccessClass.NGRAPH
        )
        self._sparse_list_cursor = 0
        # Ligra's dense frontier is a plain bool array in framework
        # memory (read through the caches on both systems); OMEGA's
        # in-scratchpad active bit is the PISC's *output* copy.
        self._dense_frontier_region = self.space.allocate(
            "dense_frontier", n, AccessClass.NGRAPH
        )
        # The dense active list: one byte per vertex, co-located with
        # vtxProp in the scratchpads ("an extra bit is added for each
        # vtxProp entry" — Section V-A).
        self.active_bits = alloc_prop(
            self.space, "active_bits", n, np.uint8, type_size=1
        )
        self._vtx_props: list = [self.active_bits]

    # ------------------------------------------------------------------
    # Data-structure allocation
    # ------------------------------------------------------------------
    def alloc_prop(
        self,
        name: str,
        dtype,
        type_size: int = 0,
        fill: float = 0,
        vtxprop: bool = True,
    ) -> VertexProp:
        """Allocate a per-vertex array.

        ``vtxprop=True`` registers it with the scratchpad monitor unit
        (it is part of the algorithm's vtxProp and may live in
        scratchpads). ``vtxprop=False`` allocates a cache-resident
        temporary — e.g. PageRank's ``curr_pagerank`` copy, which the
        paper keeps in the regular caches.
        """
        if vtxprop:
            prop = alloc_prop(
                self.space, name, self.graph.num_vertices, dtype, type_size, fill
            )
            self._vtx_props.append(prop)
            return prop
        dtype = np.dtype(dtype)
        tsize = type_size or dtype.itemsize
        region = self.space.allocate(
            name, self.graph.num_vertices * tsize, AccessClass.NGRAPH
        )
        values = np.full(self.graph.num_vertices, fill, dtype=dtype)
        return VertexProp(
            name=name, values=values, region=region, type_size=tsize, stride=tsize
        )

    def alloc_struct(self, struct_name: str, fields: Sequence[Tuple[str, np.dtype]]):
        """Allocate an array-of-structs vtxProp (stride > type_size)."""
        props = alloc_struct_props(
            self.space, struct_name, self.graph.num_vertices, fields
        )
        self._vtx_props.extend(props)
        return props

    @property
    def vtx_props(self) -> Tuple[VertexProp, ...]:
        """All scratchpad-eligible properties (monitor-register contents)."""
        return tuple(self._vtx_props)

    def vtxprop_bytes_per_vertex(self) -> int:
        """Total vtxProp entry size per vertex (Table II row)."""
        return sum(
            p.type_size for p in self._vtx_props if p is not self.active_bits
        )

    # ------------------------------------------------------------------
    # Core scheduling
    # ------------------------------------------------------------------
    def cores_for_positions(self, positions: np.ndarray, total: int) -> np.ndarray:
        """Map iteration positions to cores with the OpenMP static schedule."""
        positions = np.asarray(positions, dtype=np.int64)
        if total <= 0:
            return np.zeros(len(positions), dtype=np.int16)
        if self.chunk_size is None:
            block = -(-total // self.num_cores)
            return (positions // block).astype(np.int16)
        return ((positions // self.chunk_size) % self.num_cores).astype(np.int16)

    def cores_for_edges(self, num_edges: int) -> np.ndarray:
        """Edge-balanced core assignment for an edgeMap sweep.

        Ligra's parallel-for balances by *edge* count (hub vertices are
        split across workers), so we block-partition the flat edge
        array; consecutive edges of one source stay on one core, which
        preserves the locality the source vertex buffer exploits.
        """
        if num_edges <= 0:
            return np.zeros(0, dtype=np.int16)
        block = -(-num_edges // self.num_cores)
        return (np.arange(num_edges, dtype=np.int64) // block).astype(np.int16)

    # ------------------------------------------------------------------
    # edgeMap
    # ------------------------------------------------------------------
    def edge_map(
        self,
        frontier: VertexSubset,
        apply_fn: ApplyFn,
        src_props: Sequence[VertexProp] = (),
        dst_props: Sequence[VertexProp] = (),
        direction: str = "auto",
        output: str = "auto",
        use_weights: bool = False,
        remove_duplicates: bool = True,
    ) -> VertexSubset:
        """Apply an edge update over all edges leaving the frontier.

        Parameters
        ----------
        frontier:
            Source vertex subset.
        apply_fn:
            Vectorized callback ``(srcs, dsts, weights) -> changed_ids``
            performing the actual property updates.
        src_props:
            Properties read per-edge from the source vertex (emits
            source-buffer-eligible read events).
        dst_props:
            Properties atomically updated at the destination (one RMW
            event each per edge in sparse mode).
        direction:
            ``"out"`` (sparse/forward), ``"in"`` (dense/backward), or
            ``"auto"`` for Ligra's heuristic.
        output:
            Next-frontier representation: ``"sparse"``, ``"dense"``,
            ``"auto"``, or ``"none"`` (result discarded, e.g. PageRank).
        use_weights:
            Also read per-edge weights (SSSP).
        remove_duplicates:
            Ligra's dedup flag; the returned frontier is a set either way.

        Returns
        -------
        VertexSubset
            The set of destination vertices whose property changed.
        """
        if direction not in ("auto", "out", "in"):
            raise TraceError(f"bad direction {direction!r}")
        if output not in ("auto", "sparse", "dense", "none"):
            raise TraceError(f"bad output {output!r}")
        if use_weights and not self.graph.weighted:
            raise TraceError("use_weights=True on an unweighted graph")

        graph = self.graph
        self.stats.edge_map_calls += 1
        if direction == "auto":
            dense = frontier.should_use_dense(graph.out_degrees(), graph.num_edges)
        else:
            dense = direction == "in"

        edges_before = self.stats.edges_processed
        with get_tracer().span(
            "edge_map", cat="ligra", call=self.stats.edge_map_calls,
            mode="dense" if dense else "sparse", frontier_size=len(frontier),
        ) as span:
            if dense:
                changed = self._edge_map_dense(
                    frontier, apply_fn, src_props, dst_props, use_weights
                )
                self.stats.dense_calls += 1
            else:
                changed = self._edge_map_sparse(
                    frontier, apply_fn, src_props, dst_props, use_weights
                )
                self.stats.sparse_calls += 1

            result = VertexSubset(graph.num_vertices, ids=changed)
            self._record_active_list_update(result, output)
            # Each edgeMap step ends an iteration: source-vertex
            # properties may change afterwards, so the source buffers
            # invalidate here.
            self.trace_builder.mark_barrier()
            edges = self.stats.edges_processed - edges_before
            span.annotate(edges=edges, changed=len(result))
        metrics = get_registry()
        metrics.counter("ligra.edge_map_calls").inc()
        metrics.counter("ligra.edges_processed").inc(edges)
        _LOG.debug(
            "edge_map #%d: %s, |frontier|=%d, %d edges, %d changed",
            self.stats.edge_map_calls, "dense" if dense else "sparse",
            len(frontier), edges, len(result),
        )
        return result

    def mark_iteration(self) -> None:
        """Explicitly mark an algorithm-iteration boundary in the trace."""
        self.trace_builder.mark_barrier()

    def _edge_map_sparse(
        self,
        frontier: VertexSubset,
        apply_fn: ApplyFn,
        src_props: Sequence[VertexProp],
        dst_props: Sequence[VertexProp],
        use_weights: bool,
    ) -> np.ndarray:
        graph = self.graph
        active = frontier.to_sparse()
        srcs, dsts, pos = _expand_edges(
            graph.out_offsets, graph.out_targets, active
        )
        self.stats.edges_processed += len(srcs)
        weights = graph.out_weights[pos] if use_weights else None

        tb = self.trace_builder
        if tb.enabled and len(active):
            edge_cores = self.cores_for_edges(len(srcs))
            degs = graph.out_offsets[active + 1] - graph.out_offsets[active]
            # Each source's offset read happens on the core that owns
            # its first edge (zero-degree sources fold onto core 0's
            # schedule slot for that position).
            first_edge = np.cumsum(degs) - degs
            block = max(1, -(-len(srcs) // self.num_cores)) if len(srcs) else 1
            vertex_cores = np.minimum(
                first_edge // block, self.num_cores - 1
            ).astype(np.int16)
            tb.append(
                vertex_cores,
                self._out_offsets_region.base + active * WORD_BYTES,
                WORD_BYTES,
                AccessClass.EDGELIST,
            )
            if len(srcs):
                # Sequential reads of the out-target array (edgeList).
                tb.append(
                    edge_cores,
                    self._out_targets_region.base + pos * WORD_BYTES,
                    WORD_BYTES,
                    AccessClass.EDGELIST,
                )
                if use_weights:
                    tb.append(
                        edge_cores,
                        self._weights_region.base + pos * WORD_BYTES,
                        WORD_BYTES,
                        AccessClass.EDGELIST,
                    )
                # Per-edge source property reads (source-buffer eligible
                # when the prop is scratchpad-resident vtxProp).
                for prop in src_props:
                    tb.append(
                        edge_cores,
                        prop.addr(srcs),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        src_read=True,
                        vertex=srcs,
                    )
                # Per-edge atomic RMW on the destination property.
                for prop in dst_props:
                    tb.append(
                        edge_cores,
                        prop.addr(dsts),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        write=True,
                        atomic=True,
                        update=True,
                        vertex=dsts,
                    )
            self._record_ngraph_bookkeeping(len(active))

        return apply_fn(srcs, dsts, weights)

    def _edge_map_dense(
        self,
        frontier: VertexSubset,
        apply_fn: ApplyFn,
        src_props: Sequence[VertexProp],
        dst_props: Sequence[VertexProp],
        use_weights: bool,
    ) -> np.ndarray:
        graph = self.graph
        n = graph.num_vertices
        all_vertices = np.arange(n, dtype=np.int64)
        owners, in_nbrs, pos = _expand_edges(
            graph.in_offsets, graph.in_sources, all_vertices
        )
        in_frontier = frontier.to_dense()[in_nbrs]
        srcs = in_nbrs[in_frontier]
        dsts = owners[in_frontier]
        self.stats.edges_processed += len(owners)
        weights = graph.in_weights[pos[in_frontier]] if use_weights else None

        tb = self.trace_builder
        if tb.enabled and n:
            # Dense mode iterates destination vertices with the static
            # vertex-chunk schedule: each core scans and updates the
            # vertices whose scratchpad lines it owns (Section V-D's
            # matched-chunk configuration).
            vertex_cores = self.cores_for_positions(all_vertices, n)
            degs = graph.in_degrees()
            edge_cores = np.repeat(vertex_cores, degs)
            tb.append(
                vertex_cores,
                self._in_offsets_region.base + all_vertices * WORD_BYTES,
                WORD_BYTES,
                AccessClass.EDGELIST,
            )
            if len(owners):
                tb.append(
                    edge_cores,
                    self._in_sources_region.base + pos * WORD_BYTES,
                    WORD_BYTES,
                    AccessClass.EDGELIST,
                )
                if use_weights:
                    tb.append(
                        edge_cores,
                        self._weights_region.base + pos * WORD_BYTES,
                        WORD_BYTES,
                        AccessClass.EDGELIST,
                    )
                # The backward scan checks every in-neighbor's frontier
                # bit in the framework's dense bool array (cache path).
                tb.append(
                    edge_cores,
                    self._dense_frontier_region.base + in_nbrs,
                    1,
                    AccessClass.NGRAPH,
                )
                front_cores = edge_cores[in_frontier]
                for prop in src_props:
                    tb.append(
                        front_cores,
                        prop.addr(srcs),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        src_read=True,
                        vertex=srcs,
                    )
                # Dense mode: the owning core writes its own vertex, no
                # atomicity required (Ligra's denseness guarantee) —
                # but the update function itself is still offloadable.
                for prop in dst_props:
                    tb.append(
                        front_cores,
                        prop.addr(dsts),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        write=True,
                        atomic=False,
                        update=True,
                        vertex=dsts,
                    )
            self._record_ngraph_bookkeeping(n)

        return apply_fn(srcs, dsts, weights)

    # ------------------------------------------------------------------
    # vertexMap
    # ------------------------------------------------------------------
    def vertex_map(
        self,
        subset: VertexSubset,
        fn: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None,
        read_props: Sequence[VertexProp] = (),
        write_props: Sequence[VertexProp] = (),
        output: str = "none",
    ) -> VertexSubset:
        """Apply a per-vertex function over a subset.

        ``fn`` receives the subset's sorted id array and may return the
        ids to keep (vertexFilter semantics); returning ``None`` keeps
        all. ``read_props``/``write_props`` drive trace emission:
        sequential reads/writes of each property entry.
        """
        self.stats.vertex_map_calls += 1
        ids = subset.to_sparse()
        get_registry().counter("ligra.vertex_map_calls").inc()
        with get_tracer().span(
            "vertex_map", cat="ligra", call=self.stats.vertex_map_calls,
            size=len(ids),
        ):
            tb = self.trace_builder
            if tb.enabled and len(ids):
                positions = np.arange(len(ids), dtype=np.int64)
                cores = self.cores_for_positions(positions, len(ids))
                for prop in read_props:
                    tb.append(
                        cores,
                        prop.addr(ids),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        vertex=ids,
                    )
                for prop in write_props:
                    tb.append(
                        cores,
                        prop.addr(ids),
                        prop.type_size,
                        self.space.classify(prop.start_addr),
                        write=True,
                        vertex=ids,
                    )
            kept = fn(ids) if fn is not None else None
            result_ids = (
                ids if kept is None else np.asarray(kept, dtype=np.int64)
            )
            result = VertexSubset(self.graph.num_vertices, ids=result_ids)
            if output != "none":
                self._record_active_list_update(result, output)
        return result

    # ------------------------------------------------------------------
    # Trace plumbing
    # ------------------------------------------------------------------
    def _record_active_list_update(self, subset: VertexSubset, output: str) -> None:
        """Emit active-list maintenance events for a new frontier.

        Dense lists set the per-vertex bit stored alongside vtxProp in
        the scratchpads; sparse lists append ids to a memory-resident
        array through the L1 (Section V-B).
        """
        if output == "none" or not self.trace_builder.enabled:
            return
        ids = subset.to_sparse()
        if len(ids) == 0:
            return
        n = subset.num_vertices
        use_dense = output == "dense" or (
            output == "auto" and len(ids) > n // VertexSubset.DENSE_DIVISOR
        )
        positions = np.arange(len(ids), dtype=np.int64)
        cores = self.cores_for_positions(positions, len(ids))
        if use_dense:
            self.trace_builder.append(
                cores,
                self.active_bits.addr(ids),
                1,
                AccessClass.VTXPROP,
                write=True,
                vertex=ids,
            )
        else:
            start = self._sparse_list_cursor
            addrs = (
                self._sparse_list_region.base
                + ((start + positions) % self.graph.num_vertices) * WORD_BYTES
            )
            self._sparse_list_cursor = (start + len(ids)) % max(
                self.graph.num_vertices, 1
            )
            self.trace_builder.append(
                cores, addrs, WORD_BYTES, AccessClass.NGRAPH, write=True
            )

    def _record_ngraph_bookkeeping(self, iter_len: int) -> None:
        """Loop counters and frame state: one access per schedule chunk."""
        if iter_len <= 0:
            return
        if self.chunk_size is None:
            num_chunks = min(self.num_cores, iter_len)
        else:
            num_chunks = -(-iter_len // self.chunk_size)
        cores = self.cores_for_positions(
            np.arange(num_chunks, dtype=np.int64)
            * (self.chunk_size or max(1, iter_len // self.num_cores)),
            iter_len,
        )
        addrs = self._ngraph_region.base + (
            np.arange(num_chunks, dtype=np.int64) % 128
        ) * WORD_BYTES
        self.trace_builder.append(cores, addrs, WORD_BYTES, AccessClass.NGRAPH)

    # ------------------------------------------------------------------
    # Raw trace hooks for non-edgeMap algorithms (e.g. triangle counting)
    # ------------------------------------------------------------------
    def record_offset_reads(self, cores, vertices: np.ndarray) -> None:
        """Record CSR out-offset reads for ``vertices`` (edgeList class)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self.trace_builder.append(
            cores,
            self._out_offsets_region.base + vertices * WORD_BYTES,
            WORD_BYTES,
            AccessClass.EDGELIST,
        )

    def record_adjacency_reads(self, cores, positions: np.ndarray) -> None:
        """Record out-target array reads at CSR ``positions`` (edgeList)."""
        positions = np.asarray(positions, dtype=np.int64)
        self.trace_builder.append(
            cores,
            self._out_targets_region.base + positions * WORD_BYTES,
            WORD_BYTES,
            AccessClass.EDGELIST,
        )

    def record_prop_access(
        self,
        cores,
        prop: VertexProp,
        vertices: np.ndarray,
        write: bool = False,
        atomic: bool = False,
        src_read: bool = False,
    ) -> None:
        """Record direct property accesses outside edge/vertex map."""
        vertices = np.asarray(vertices, dtype=np.int64)
        self.trace_builder.append(
            cores,
            prop.addr(vertices),
            prop.type_size,
            self.space.classify(prop.start_addr),
            write=write,
            atomic=atomic,
            src_read=src_read,
            vertex=vertices,
        )

    def build_trace(self) -> Trace:
        """Finalize and return the accumulated memory trace.

        The engine's address-space layout is attached so saved
        archives are self-describing (``docs/trace-format.md``).
        """
        trace = self.trace_builder.build()
        trace.regions = tuple(self.space.regions)
        return trace
