"""Simplified MESI directory for the private L1s.

Tracks, per cache line, which cores hold a copy and whether one of
them holds it modified. The replay charges the classic MESI costs:

- a read of a line modified in another L1 forces a write-back
  (line-sized on-chip transfer plus latency),
- a write/atomic invalidates all other sharers (one control packet
  each), which is the coherence ping-pong that makes core-side atomics
  on shared vertex data expensive on the baseline CMP.

State is a dict line → (sharer bitmask, owner). Only a *dirty* L1
eviction reaches the directory (:meth:`Directory.on_eviction`), and a
read never clears a bit, so a sharer whose copy was evicted clean keeps
its (stale) bit until the next write to the line, which counts it as an
invalidation. That slightly overestimates sharing — a conservative
choice that favors the *baseline* (OMEGA's scratchpad traffic never
touches the directory) — and the batch kernel's directory stage
reproduces it exactly.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["Directory", "CoherenceOutcome"]

#: (invalidated_cores_mask, writeback_needed)
CoherenceOutcome = Tuple[int, bool]


class Directory:
    """MESI-style sharer tracking for one chip's private L1s."""

    def __init__(self) -> None:
        # line -> [sharer_mask, owner_core_or_-1 (modified holder)]
        self._lines: Dict[int, list] = {}

    def on_read(self, line: int, core: int) -> CoherenceOutcome:
        """Core ``core`` reads ``line``; returns (inval_mask, writeback)."""
        entry = self._lines.get(line)
        if entry is None:
            self._lines[line] = [1 << core, -1]
            return 0, False
        mask, owner = entry
        writeback = owner >= 0 and owner != core
        if writeback:
            entry[1] = -1  # downgrade M -> S
        entry[0] = mask | (1 << core)
        return 0, writeback

    def on_write(self, line: int, core: int) -> CoherenceOutcome:
        """Core ``core`` writes ``line``; returns (inval_mask, writeback).

        ``inval_mask`` has a bit set for every *other* core whose L1
        copy must be invalidated; the caller drops those lines from the
        corresponding caches.
        """
        entry = self._lines.get(line)
        me = 1 << core
        if entry is None:
            self._lines[line] = [me, core]
            return 0, False
        mask, owner = entry
        others = mask & ~me
        writeback = owner >= 0 and owner != core
        entry[0] = me
        entry[1] = core
        return others, writeback

    def on_eviction(self, line: int, core: int) -> None:
        """Core ``core`` evicted ``line`` from its L1."""
        entry = self._lines.get(line)
        if entry is None:
            return
        entry[0] &= ~(1 << core)
        if entry[1] == core:
            entry[1] = -1
        if entry[0] == 0:
            del self._lines[line]
