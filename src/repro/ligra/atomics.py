"""Atomic-operation vocabulary (paper Table II / Section V-B).

Each graph algorithm's inner loop boils down to one or two simple
atomic read-modify-write operations on the destination vertex's
property — floating-point add for PageRank, unsigned compare-and-swap
for BFS, signed min for SSSP, and so on. OMEGA's PISC engines
implement exactly this vocabulary in hardware; this module defines the
operations once so that

- the Ligra engine can apply them functionally (vectorized),
- the offload compiler can emit PISC microcode for them, and
- the PISC timing model can charge the right ALU latency/energy.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.intsort import unique_ids

__all__ = ["AtomicOp", "apply_atomic", "scatter_atomic"]


class AtomicOp(enum.Enum):
    """Atomic RMW operations supported by the PISC ALU."""

    #: Floating-point add (PageRank's rank accumulation).
    FP_ADD = "fp_add"
    #: Unsigned compare-and-swap against an "unvisited" sentinel (BFS parent).
    UINT_CAS = "uint_cas"
    #: Signed integer minimum (SSSP distance relaxation, BC level).
    SINT_MIN = "sint_min"
    #: Unsigned integer minimum (CC label propagation).
    UINT_MIN = "uint_min"
    #: Bitwise OR (Radii's visited-bitmask union).
    OR = "or"
    #: Signed integer add (TC/KC counters).
    SINT_ADD = "sint_add"
    #: Floating-point add fused with a dependency check (BC).
    FP_ADD_DEP = "fp_add_dep"

    @property
    def is_floating_point(self) -> bool:
        """True for ops that need the PISC's FP adder (its area driver)."""
        return self in (AtomicOp.FP_ADD, AtomicOp.FP_ADD_DEP)

    @property
    def paper_label(self) -> str:
        """Human-readable label as used in the paper's Table II."""
        return {
            AtomicOp.FP_ADD: "fp add",
            AtomicOp.UINT_CAS: "unsigned comp.",
            AtomicOp.SINT_MIN: "signed min",
            AtomicOp.UINT_MIN: "unsigned min",
            AtomicOp.OR: "or",
            AtomicOp.SINT_ADD: "signed add",
            AtomicOp.FP_ADD_DEP: "min & fp add",
        }[self]


def _combine(op: AtomicOp, current: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """Pure combine step of the RMW, vectorized over aligned arrays."""
    if op in (AtomicOp.FP_ADD, AtomicOp.FP_ADD_DEP, AtomicOp.SINT_ADD):
        return current + operand
    if op in (AtomicOp.SINT_MIN, AtomicOp.UINT_MIN):
        return np.minimum(current, operand)
    if op is AtomicOp.OR:
        return current | operand
    if op is AtomicOp.UINT_CAS:
        # CAS against the max-value "unvisited" sentinel: keep current
        # unless it still holds the sentinel.
        sentinel = np.iinfo(current.dtype).max if current.dtype.kind in "iu" else -1
        return np.where(current == sentinel, operand, current)
    raise SimulationError(f"unsupported atomic op {op}")  # pragma: no cover


def apply_atomic(op: AtomicOp, current: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """Apply ``op`` element-wise: ``result[i] = op(current[i], operand[i])``."""
    current = np.asarray(current)
    operand = np.asarray(operand, dtype=current.dtype)
    return _combine(op, current, operand)


_UFUNC: dict = {}


def _scatter_ufunc(op: AtomicOp) -> Callable:
    """The ``np.ufunc.at``-style scatter routine for duplicate indices."""
    if not _UFUNC:
        _UFUNC.update(
            {
                AtomicOp.FP_ADD: np.add.at,
                AtomicOp.FP_ADD_DEP: np.add.at,
                AtomicOp.SINT_ADD: np.add.at,
                AtomicOp.SINT_MIN: np.minimum.at,
                AtomicOp.UINT_MIN: np.minimum.at,
                AtomicOp.OR: np.bitwise_or.at,
            }
        )
    return _UFUNC[op]


def scatter_atomic(
    op: AtomicOp,
    array: np.ndarray,
    indices: np.ndarray,
    operands: np.ndarray,
) -> np.ndarray:
    """Apply ``array[indices[i]] = op(array[indices[i]], operands[i])`` for all i.

    Handles duplicate indices with true sequential-equivalent semantics
    (``np.ufunc.at``), which is what a hardware atomic guarantees.
    Returns the indices whose stored value changed (deduplicated) — the
    information edgeMap needs to build the next frontier. Out-of-range
    indices raise :class:`TraceError` before ``array`` is touched.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return indices
    uniq = unique_ids(indices, len(array))
    before = array[uniq].copy()
    if op is AtomicOp.UINT_CAS:
        # First writer wins among duplicates; emulate by keeping the
        # first occurrence of each index.
        sentinel = np.iinfo(array.dtype).max if array.dtype.kind in "iu" else -1
        first_idx = np.unique(indices, return_index=True)[1]
        sel = indices[first_idx]
        vals = np.asarray(operands)[first_idx]
        unvisited = array[sel] == sentinel
        array[sel[unvisited]] = vals[unvisited]
    else:
        _scatter_ufunc(op)(array, indices, np.asarray(operands, dtype=array.dtype))
    changed = uniq[array[uniq] != before]
    return changed
