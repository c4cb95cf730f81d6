"""On-chip interconnect: the transfer latency model.

The paper's network is a 16x crossbar with a 128-bit bus and a
measured average remote-hop latency of 17 cycles; a 2D-mesh topology
is also provided for core-count scaling studies (per-hop Manhattan
latency).

The Fig 17 traffic volume is not counted here: the accounting stages
charge it to :class:`~repro.memsim.stats.MemStats` in two packet
classes — ``onchip_line_bytes`` (64 B + header, every L1<->L2 line
transfer) and ``onchip_word_bytes`` (payload + header: OMEGA's
scratchpad words and PISC offload commands, plus header-only coherence
control messages).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.config import InterconnectConfig

__all__ = ["Crossbar"]


class Crossbar:
    """Transfer latency of one chip's interconnect.

    Named for the paper's Table III topology; also models a 2D mesh
    when the config selects it. :meth:`transfer_latency` accepts
    optional ``src``/``dst`` tile ids — the crossbar's latency is
    uniform, the mesh's is Manhattan-distance based (falling back to
    the average hop count when endpoints are unknown).
    """

    def __init__(self, config: InterconnectConfig, num_cores: int) -> None:
        self.config = config
        self._mesh_side = max(1, int(round(math.sqrt(num_cores))))

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two tiles on the mesh."""
        side = self._mesh_side
        sx, sy = src % side, src // side
        dx, dy = dst % side, dst // side
        return abs(sx - dx) + abs(sy - dy)

    def average_hops(self) -> float:
        """Mean Manhattan distance between distinct random tiles."""
        side = self._mesh_side
        # E|x1-x2| for uniform ints in [0, side) is (side^2 - 1) / (3 side).
        per_axis = (side * side - 1) / (3 * side)
        return 2 * per_axis

    def transfer_latency(
        self, src: Optional[int] = None, dst: Optional[int] = None
    ) -> int:
        """Latency of one remote transfer under the configured topology."""
        if self.config.topology == "crossbar":
            return self.config.remote_latency_cycles
        if src is None or dst is None:
            hop_count = self.average_hops()
        else:
            hop_count = self.hops(src, dst)
        return int(
            round(
                self.config.mesh_router_cycles
                + hop_count * self.config.mesh_hop_cycles
            )
        )
