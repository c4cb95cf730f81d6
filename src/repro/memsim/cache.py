"""Set-associative write-back cache with LRU replacement.

Used for both the private L1s and the shared banked L2. The replay
loop is pure Python, so the implementation favors cheap per-access
work: each set is an ``OrderedDict`` mapping line tag → dirty flag,
giving O(1) hit/miss/evict with LRU ordering maintained by
``move_to_end``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.config import CacheConfig

__all__ = ["Cache", "AccessResult"]

#: (hit, evicted_dirty_line_addr_or_None)
AccessResult = Tuple[bool, Optional[int]]


class Cache:
    """One set-associative LRU cache instance.

    Addresses are byte addresses; lookups operate on line granularity
    internally. The cache is write-allocate / write-back: a write miss
    fetches the line, and dirty victims are reported to the caller so
    the hierarchy can charge the write-back traffic.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._line_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self._num_sets)]

    def line_of(self, addr: int) -> int:
        """Line address (byte address with offset bits cleared)."""
        return addr >> self._line_bits

    def access_line(self, line: int, write: bool = False) -> AccessResult:
        """Access a line address; returns (hit, dirty_victim_line).

        ``dirty_victim_line`` is the evicted line's address when a miss
        displaced modified data, else ``None``.
        """
        s = self._sets[line % self._num_sets]
        if line in s:
            s.move_to_end(line)
            if write:
                s[line] = True
            return True, None
        victim_dirty: Optional[int] = None
        if len(s) >= self._ways:
            victim_line, was_dirty = s.popitem(last=False)
            if was_dirty:
                victim_dirty = victim_line
        s[line] = write
        return False, victim_dirty

    def invalidate_line(self, line: int) -> bool:
        """Drop a line (coherence invalidation); returns whether present."""
        s = self._sets[line % self._num_sets]
        if line in s:
            del s[line]
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cache({self.name}, {self.config.size_bytes}B,"
            f" {self._ways}-way)"
        )
