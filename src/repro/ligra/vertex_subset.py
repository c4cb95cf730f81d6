"""Vertex subsets: Ligra's sparse/dense active-vertex lists.

Ligra represents the frontier either *sparsely* (an array of active
vertex ids) or *densely* (a boolean per vertex) and converts between
the two based on frontier size — the representation also determines
how OMEGA maintains the active list in hardware (Section V-B
"Maintaining the active-list": dense lists are a bit per scratchpad
line, sparse lists are appended through the L1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import TraceError
from repro.intsort import unique_ids

__all__ = ["VertexSubset"]


class VertexSubset:
    """An immutable set of active vertices over ``0..num_vertices-1``.

    Internally keeps whichever representation it was built from and
    materializes the other lazily. Equality and iteration follow set
    semantics (sorted ids).
    """

    #: Ligra's threshold: go dense when |frontier| + its out-edges
    #: exceed |E| / DENSE_DIVISOR.
    DENSE_DIVISOR = 20

    def __init__(
        self,
        num_vertices: int,
        ids: Optional[np.ndarray] = None,
        dense: Optional[np.ndarray] = None,
    ) -> None:
        if num_vertices < 0:
            raise TraceError(f"num_vertices must be >= 0, got {num_vertices}")
        if (ids is None) == (dense is None):
            raise TraceError("provide exactly one of ids= or dense=")
        self._n = int(num_vertices)
        self._ids: Optional[np.ndarray] = None
        self._dense: Optional[np.ndarray] = None
        if ids is not None:
            self._ids = unique_ids(np.asarray(ids, dtype=np.int64), self._n)
        else:
            d = np.asarray(dense, dtype=bool)
            if d.shape != (num_vertices,):
                raise TraceError(
                    f"dense mask must have shape ({num_vertices},), got {d.shape}"
                )
            self._dense = d.copy()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_vertices: int) -> "VertexSubset":
        """The empty frontier."""
        return cls(num_vertices, ids=np.zeros(0, dtype=np.int64))

    @classmethod
    def single(cls, num_vertices: int, vertex: int) -> "VertexSubset":
        """A singleton frontier (BFS/SSSP root)."""
        return cls(num_vertices, ids=np.array([vertex], dtype=np.int64))

    @classmethod
    def full(cls, num_vertices: int) -> "VertexSubset":
        """All vertices active (PageRank's every-iteration frontier)."""
        return cls(num_vertices, dense=np.ones(num_vertices, dtype=bool))

    @classmethod
    def from_ids(cls, num_vertices: int, ids: Iterable[int]) -> "VertexSubset":
        """Build from an iterable of vertex ids."""
        return cls(num_vertices, ids=np.fromiter(ids, dtype=np.int64))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Size of the universe this subset draws from."""
        return self._n

    def to_sparse(self) -> np.ndarray:
        """Sorted array of active vertex ids."""
        if self._ids is None:
            self._ids = np.flatnonzero(self._dense).astype(np.int64)
        return self._ids

    def to_dense(self) -> np.ndarray:
        """Boolean mask of length ``num_vertices``."""
        if self._dense is None:
            d = np.zeros(self._n, dtype=bool)
            d[self._ids] = True
            self._dense = d
        return self._dense

    def __len__(self) -> int:
        if self._ids is not None:
            return len(self._ids)
        return int(self._dense.sum())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, vertex: int) -> bool:
        return bool(self.to_dense()[vertex])

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.to_sparse())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        return self._n == other._n and np.array_equal(
            self.to_sparse(), other.to_sparse()
        )

    def __hash__(self) -> int:  # subsets are hashable by content
        return hash((self._n, self.to_sparse().tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexSubset({len(self)}/{self._n})"

    # ------------------------------------------------------------------
    # Decisions & algebra
    # ------------------------------------------------------------------
    def should_use_dense(self, out_degrees: np.ndarray, num_edges: int) -> bool:
        """Ligra's direction-optimization heuristic.

        Returns True when ``|frontier| + sum(out_degree(frontier))``
        exceeds ``num_edges / DENSE_DIVISOR`` — the point where a dense
        backward traversal beats a sparse forward one.
        """
        ids = self.to_sparse()
        work = len(ids) + int(out_degrees[ids].sum())
        return work > num_edges // self.DENSE_DIVISOR

    def union(self, other: "VertexSubset") -> "VertexSubset":
        """Set union."""
        self._check_same_universe(other)
        return VertexSubset(
            self._n, ids=np.union1d(self.to_sparse(), other.to_sparse())
        )

    def difference(self, other: "VertexSubset") -> "VertexSubset":
        """Set difference ``self - other``."""
        self._check_same_universe(other)
        return VertexSubset(
            self._n, ids=np.setdiff1d(self.to_sparse(), other.to_sparse())
        )

    def intersection(self, other: "VertexSubset") -> "VertexSubset":
        """Set intersection."""
        self._check_same_universe(other)
        return VertexSubset(
            self._n, ids=np.intersect1d(self.to_sparse(), other.to_sparse())
        )

    def _check_same_universe(self, other: "VertexSubset") -> None:
        if self._n != other._n:
            raise TraceError(
                f"subset universes differ: {self._n} vs {other._n}"
            )
