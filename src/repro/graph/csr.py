"""Compressed-sparse-row graph container.

The CSR graph is the foundation for every subsystem in this
reproduction: the Ligra-like engine iterates its out- and in-edge
arrays, the degree analytics read its offsets, and the memory
simulator derives edge-array addresses from the positions of edges in
the CSR storage (mirroring how Ligra lays the ``edgeList`` out in
memory).

Both edge directions are materialized: ``out_offsets``/``out_targets``
store outgoing edges sorted by source, and ``in_offsets``/``in_sources``
store incoming edges sorted by destination. Undirected graphs store
each edge in both directions and set :attr:`CSRGraph.directed` to
``False``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.intsort import stable_argsort

__all__ = ["CSRGraph", "from_edges"]


def _build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Sort edges by ``src`` and build (offsets, targets, weights)."""
    order = stable_argsort(src)
    sorted_src = src[order]
    targets = dst[order]
    sorted_weights = weights[order] if weights is not None else None
    counts = np.bincount(sorted_src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, targets.astype(np.int64, copy=False), sorted_weights


class CSRGraph:
    """An immutable directed or undirected graph in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    src, dst:
        Edge endpoint arrays of equal length. For undirected graphs,
        pass each edge once and set ``directed=False``; the reverse
        direction is materialized internally.
    weights:
        Optional per-edge weights (same length as ``src``). Used by
        SSSP; unweighted algorithms ignore them.
    directed:
        Whether the graph is directed.
    """

    def __init__(
        self,
        num_vertices: int,
        src: Sequence[int],
        dst: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        directed: bool = True,
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        if src_arr.ndim != 1 or dst_arr.ndim != 1:
            raise GraphError("src and dst must be one-dimensional")
        if src_arr.shape != dst_arr.shape:
            raise GraphError(
                f"src and dst must have equal length, got {len(src_arr)} and {len(dst_arr)}"
            )
        w_arr: Optional[np.ndarray] = None
        if weights is not None:
            w_arr = np.asarray(weights, dtype=np.float64)
            if w_arr.shape != src_arr.shape:
                raise GraphError("weights must have the same length as src/dst")
        if len(src_arr) and num_vertices == 0:
            raise GraphError("edges present but num_vertices is 0")
        if len(src_arr):
            top = max(int(src_arr.max()), int(dst_arr.max()))
            low = min(int(src_arr.min()), int(dst_arr.min()))
            if low < 0 or top >= num_vertices:
                raise GraphError(
                    f"edge endpoints must lie in [0, {num_vertices - 1}], "
                    f"found range [{low}, {top}]"
                )

        self._num_vertices = int(num_vertices)
        self._directed = bool(directed)
        self._num_input_edges = int(len(src_arr))
        self._fingerprint: Optional[str] = None

        if not directed:
            # Store both directions; skip duplicating self-loops.
            loops = src_arr == dst_arr
            rev_src = dst_arr[~loops]
            rev_dst = src_arr[~loops]
            all_src = np.concatenate([src_arr, rev_src])
            all_dst = np.concatenate([dst_arr, rev_dst])
            if w_arr is not None:
                all_w: Optional[np.ndarray] = np.concatenate([w_arr, w_arr[~loops]])
            else:
                all_w = None
        else:
            all_src, all_dst, all_w = src_arr, dst_arr, w_arr

        self._out_offsets, self._out_targets, self._out_weights = _build_csr(
            num_vertices, all_src, all_dst, all_w
        )
        self._in_offsets, self._in_sources, self._in_weights = _build_csr(
            num_vertices, all_dst, all_src, all_w
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of stored directed arcs (2x input edges if undirected)."""
        return int(len(self._out_targets))

    @property
    def num_input_edges(self) -> int:
        """Number of edges as supplied by the caller."""
        return self._num_input_edges

    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def weighted(self) -> bool:
        """Whether per-edge weights were supplied."""
        return self._out_weights is not None

    # ------------------------------------------------------------------
    # CSR array views (read-only)
    # ------------------------------------------------------------------
    @property
    def out_offsets(self) -> np.ndarray:
        """Out-edge offsets, length ``num_vertices + 1``."""
        return self._out_offsets

    @property
    def out_targets(self) -> np.ndarray:
        """Concatenated out-neighbor ids, sorted by source."""
        return self._out_targets

    @property
    def in_offsets(self) -> np.ndarray:
        """In-edge offsets, length ``num_vertices + 1``."""
        return self._in_offsets

    @property
    def in_sources(self) -> np.ndarray:
        """Concatenated in-neighbor ids, sorted by destination."""
        return self._in_sources

    @property
    def out_weights(self) -> Optional[np.ndarray]:
        """Weights aligned with :attr:`out_targets` (``None`` if unweighted)."""
        return self._out_weights

    @property
    def in_weights(self) -> Optional[np.ndarray]:
        """Weights aligned with :attr:`in_sources` (``None`` if unweighted)."""
        return self._in_weights

    def fingerprint(self) -> str:
        """Content hash of the graph's structural arrays (memoized).

        A blake2b digest over the out-direction CSR arrays, the weight
        array (when present), the vertex count and the directedness
        flag. The in-direction arrays are derived deterministically
        from the out direction, so they add no information. Two graphs
        with equal fingerprints produce byte-identical memory traces
        for the same (algorithm, kwargs, cores, chunk, reorder)
        tuple — this is the graph component of the trace-store cache
        key (:mod:`repro.store`).
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(
                f"csr/v1:{self._num_vertices}:{int(self._directed)}:"
                f"{int(self._out_weights is not None)}".encode()
            )
            h.update(np.ascontiguousarray(self._out_offsets).tobytes())
            h.update(np.ascontiguousarray(self._out_targets).tobytes())
            if self._out_weights is not None:
                h.update(np.ascontiguousarray(self._out_weights).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Per-vertex accessors
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._out_offsets[v + 1] - self._out_offsets[v])

    def in_degree(self, v: int) -> int:
        """In-degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._in_offsets[v + 1] - self._in_offsets[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self._out_offsets)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees."""
        return np.diff(self._in_offsets)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbor ids of ``v`` (a read-only CSR slice)."""
        self._check_vertex(v)
        return self._out_targets[self._out_offsets[v] : self._out_offsets[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbor ids of ``v`` (a read-only CSR slice)."""
        self._check_vertex(v)
        return self._in_sources[self._in_offsets[v] : self._in_offsets[v + 1]]

    def out_edge_range(self, v: int) -> Tuple[int, int]:
        """Half-open index range of ``v``'s out-edges in :attr:`out_targets`."""
        self._check_vertex(v)
        return int(self._out_offsets[v]), int(self._out_offsets[v + 1])

    def in_edge_range(self, v: int) -> Tuple[int, int]:
        """Half-open index range of ``v``'s in-edges in :attr:`in_sources`."""
        self._check_vertex(v)
        return int(self._in_offsets[v]), int(self._in_offsets[v + 1])

    # ------------------------------------------------------------------
    # Whole-graph transforms
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(src, dst)`` over all stored arcs."""
        for v in range(self._num_vertices):
            lo, hi = self._out_offsets[v], self._out_offsets[v + 1]
            for t in self._out_targets[lo:hi]:
                yield v, int(t)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays for all stored arcs."""
        src = np.repeat(np.arange(self._num_vertices, dtype=np.int64), self.out_degrees())
        return src, self._out_targets.copy()

    def relabel(self, new_ids: Sequence[int]) -> "CSRGraph":
        """Return a copy with vertex ``v`` renamed to ``new_ids[v]``.

        ``new_ids`` must be a permutation of ``0 .. num_vertices - 1``.
        This is the primitive underlying every reordering algorithm in
        :mod:`repro.graph.reorder`.
        """
        perm = np.asarray(new_ids, dtype=np.int64)
        if perm.shape != (self._num_vertices,):
            raise GraphError(
                f"relabel permutation must have length {self._num_vertices}, got {perm.shape}"
            )
        seen = np.zeros(self._num_vertices, dtype=bool)
        if len(perm):
            if perm.min() < 0 or perm.max() >= self._num_vertices:
                raise GraphError("relabel ids out of range")
            seen[perm] = True
        if not seen.all():
            raise GraphError("relabel permutation is not a bijection")
        if self._directed:
            src, dst = self.edge_arrays()
            w = self._out_weights.copy() if self._out_weights is not None else None
        else:
            # Rebuild from each undirected edge once (src <= dst arbitrary
            # canonicalisation via stored arcs where src appears first).
            src, dst, w = self._undirected_edge_arrays()
        return CSRGraph(
            self._num_vertices, perm[src], perm[dst], weights=w, directed=self._directed
        )

    def _undirected_edge_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Recover one arc per undirected edge (keep ``src <= dst``)."""
        src, dst = self.edge_arrays()
        keep = src <= dst
        w = self._out_weights[keep] if self._out_weights is not None else None
        return src[keep], dst[keep], w

    def as_undirected(self) -> "CSRGraph":
        """Return a symmetric (undirected) version of this graph.

        Required by CC, TC and KC, which Ligra runs on symmetric graphs.
        """
        if not self._directed:
            return self
        src, dst = self.edge_arrays()
        # Deduplicate parallel arcs that would otherwise double up.
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = lo * self._num_vertices + hi
        _, idx = np.unique(keys, return_index=True)
        return CSRGraph(
            self._num_vertices, lo[idx], hi[idx], directed=False
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self._num_vertices - 1}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self._directed else "undirected"
        return (
            f"CSRGraph({kind}, |V|={self._num_vertices}, arcs={self.num_edges},"
            f" weighted={self.weighted})"
        )


def from_edges(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
    directed: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an iterable of ``(src, dst)`` pairs.

    If ``num_vertices`` is omitted it is inferred as ``max id + 1``.
    """
    pairs = list(edges)
    if pairs:
        src, dst = zip(*pairs)
    else:
        src, dst = (), ()
    if num_vertices is None:
        num_vertices = (max(max(src, default=-1), max(dst, default=-1)) + 1) if pairs else 0
    return CSRGraph(num_vertices, src, dst, directed=directed)
