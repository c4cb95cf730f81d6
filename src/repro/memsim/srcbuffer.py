"""Per-core source vertex buffer (paper Section V-C, Figure 11).

A small read-only buffer in front of the remote scratchpads: when a
core reads a *source* vertex's vtxProp (SSSP-style algorithms read it
once per outgoing edge), the first read pays the remote-scratchpad
latency and fills the buffer; subsequent reads of the same vertex hit
locally. Because source properties are stable within an algorithm
iteration, the buffer needs no coherence — it is simply invalidated
wholesale at every iteration boundary.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["SourceVertexBuffer"]


class SourceVertexBuffer:
    """LRU buffer of recently read (prop, vertex) source entries."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ConfigError(f"buffer needs >= 1 entry, got {num_entries}")
        self.num_entries = num_entries
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, key: int) -> bool:
        """Check for ``key``; on miss, allocate it (read-allocate)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        if len(self._entries) >= self.num_entries:
            self._entries.popitem(last=False)
        self._entries[key] = None
        return False

    def invalidate_all(self) -> None:
        """End-of-iteration wholesale invalidation."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
