"""Scratchpad vertex-to-pad mapping (paper Sections V-A and V-D).

OMEGA partitions the vtxProp of the hot (lowest-id, post-reordering)
vertices across all per-core scratchpads. The mapping is a chunked
interleave: vertex ``v`` lives on pad ``(v // chunk) % num_cores`` at
line ``(v // (chunk * num_cores)) * chunk + v % chunk``.

Section V-D's observation is that the chunk size should be
*reconfigured to match the OpenMP schedule's chunk size*: when they
match, the sequential vtxProp scans in vertexMap touch only the local
pad; when they differ (e.g. SP chunk 1 vs OpenMP chunk 2), half or
more of those accesses become remote. :class:`ScratchpadMapping`
exposes the chunk so the experiment can set up both cases.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["ScratchpadMapping"]


class ScratchpadMapping:
    """Maps hot vertex ids to (pad, line) pairs.

    Parameters
    ----------
    num_cores:
        Number of scratchpads (one per core).
    hot_capacity:
        Number of vertices mapped to scratchpads in total; ids
        ``[0, hot_capacity)`` are scratchpad-resident (the graph must
        be popularity-reordered first).
    chunk_size:
        Interleave chunk. ``None`` means block partitioning: each pad
        owns one contiguous range of ``ceil(hot_capacity/num_cores)``
        vertices, which matches an OpenMP static schedule without an
        explicit chunk.
    """

    def __init__(
        self,
        num_cores: int,
        hot_capacity: int,
        chunk_size: "int | None" = None,
    ) -> None:
        if num_cores <= 0:
            raise ConfigError(f"num_cores must be > 0, got {num_cores}")
        if hot_capacity < 0:
            raise ConfigError(f"hot_capacity must be >= 0, got {hot_capacity}")
        if chunk_size is not None and chunk_size <= 0:
            raise ConfigError(f"chunk_size must be > 0, got {chunk_size}")
        self.num_cores = num_cores
        self.hot_capacity = hot_capacity
        if chunk_size is None:
            # Block partition == one chunk per core spanning the range.
            self.chunk_size = max(1, -(-hot_capacity // num_cores))
        else:
            self.chunk_size = chunk_size

    def is_hot(self, vertex: int) -> bool:
        """Whether a vertex id is scratchpad-resident."""
        return 0 <= vertex < self.hot_capacity

    def is_hot_many(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_hot`."""
        v = np.asarray(vertices)
        return (v >= 0) & (v < self.hot_capacity)

    def home(self, vertex: int) -> int:
        """Pad (core) owning ``vertex``'s scratchpad line."""
        return (vertex // self.chunk_size) % self.num_cores

    def home_many(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`home`, in the vertices' dtype.

        Int64 only when the chunk size itself does not fit that dtype.
        """
        v = np.asarray(vertices)
        if self.chunk_size > np.iinfo(v.dtype).max:
            v = v.astype(np.int64)
        return (v // self.chunk_size) % self.num_cores

    def line(self, vertex: int) -> int:
        """Line index of ``vertex`` within its pad (the index unit)."""
        stripe = vertex // (self.chunk_size * self.num_cores)
        return stripe * self.chunk_size + vertex % self.chunk_size

    def vertices_per_pad(self) -> int:
        """Upper bound on vertices stored on any one pad."""
        return -(-self.hot_capacity // self.num_cores)
