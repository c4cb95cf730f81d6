"""Route codes and route resolution helpers.

Every hierarchy backend reduces to a *routing policy*: one
``ROUTE_*`` code per trace event, assigned in a single vectorized
pass. The codes partition the trace into the stateful cache path
(``ROUTE_CACHE``) and the batch-accounted scratchpad/buffer/PIM
families; :mod:`repro.memsim.accounting` charges the latter with
``np.bincount`` folds.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.interconnect import Crossbar

__all__ = [
    "ROUTE_CACHE",
    "ROUTE_SP_PLAIN",
    "ROUTE_SP_RMW",
    "ROUTE_SP_OFFLOAD",
    "ROUTE_SRCBUF_HIT",
    "ROUTE_LOCKED",
    "ROUTE_PIM",
    "transfer_latency_many",
]

# Route codes assigned by HierarchyBackend.route, one per trace event.
ROUTE_CACHE = 0        #: L1 → L2 → DRAM (the stateful loop)
ROUTE_SP_PLAIN = 1     #: plain scratchpad read/write (word packets)
ROUTE_SP_RMW = 2       #: core-executed RMW on a scratchpad word
ROUTE_SP_OFFLOAD = 3   #: fire-and-forget PISC offload
ROUTE_SRCBUF_HIT = 4   #: absorbed by the source vertex buffer
ROUTE_LOCKED = 5       #: pinned L2 line (locked-cache design)
ROUTE_PIM = 6          #: off-chip PIM atomic (GraphPIM design)


def transfer_latency_many(
    crossbar: Crossbar, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`Crossbar.transfer_latency` (no packet side
    effects — accounting is the caller's job)."""
    cfg = crossbar.config
    src = np.asarray(src, dtype=np.int64)
    if cfg.topology == "crossbar":
        return np.full(len(src), cfg.remote_latency_cycles, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    side = crossbar._mesh_side
    hops = np.abs(src % side - dst % side) + np.abs(src // side - dst // side)
    lat = np.rint(cfg.mesh_router_cycles + hops * cfg.mesh_hop_cycles)
    return lat.astype(np.int64)

