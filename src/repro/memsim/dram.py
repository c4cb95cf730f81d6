"""DRAM channel model: latency and page policies.

The paper's detailed setup is 4x DDR3-1600 at 12 GB/s per channel
(Table III); its high-level model charges 100 cycles per access
(the ``"closed"`` page policy, the default here). Section IX proposes
a hybrid open/closed-page policy — open-page for the streaming
edgeList, closed-page for the spatially-random vtxProp — which the
``"open"`` and ``"hybrid"`` policies implement via per-channel
row-buffer tracking.

Every demand access contributes its latency to the issuing core. The
bytes moved are counted in :class:`~repro.memsim.stats.MemStats`
(``dram_read_bytes``/``dram_write_bytes``), from which the timing model
derives the channels' bandwidth bound (the Fig 16 utilization metric).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import DramConfig

__all__ = ["DramModel"]


class DramModel:
    """Row-buffer state of one simulated run's DRAM channels.

    ``row_hits``/``row_misses`` count the open-row outcomes under the
    open and hybrid policies (the Section IX page-policy study reads
    them); the closed policy keeps no row state.
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.row_hits = 0
        self.row_misses = 0
        self._open_rows: List[int] = [-1] * config.channels
        #: Address ranges treated as spatially random under "hybrid".
        self._random_ranges: List[Tuple[int, int]] = []

    def set_random_ranges(self, ranges) -> None:
        """Declare the (start, end) address ranges the hybrid policy
        should serve close-page (the vtxProp regions)."""
        self._random_ranges = [(int(a), int(b)) for a, b in ranges]

    def access(self, addr: Optional[int] = None) -> int:
        """One line access at ``addr``; returns its latency.

        A demand read's latency is charged to the issuing core;
        write-backs are posted (off the critical path), so for them
        only the row-buffer state change matters.
        """
        policy = self.config.page_policy
        if policy == "closed" or addr is None:
            return self.config.latency_cycles
        if policy == "hybrid":
            for start, end in self._random_ranges:
                if start <= addr < end:
                    return self.config.latency_cycles
        channel = (addr // 64) % self.config.channels
        row = addr // self.config.row_bytes
        if self._open_rows[channel] == row:
            self.row_hits += 1
            return self.config.row_hit_cycles
        self.row_misses += 1
        self._open_rows[channel] = row
        return self.config.row_miss_cycles

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hit rate (only meaningful for open/hybrid)."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0
