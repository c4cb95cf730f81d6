"""Linear-time integer primitives for cold trace preparation.

CSR builds, batch screening and the reuse-gap estimator sort integer
keys whose span is far below their dtype's, and frontiers deduplicate
vertex ids from a known ``[0, n)``. :func:`stable_argsort` (LSD radix
over 16-bit digits) and :func:`unique_ids` (bool mask) return exactly
what ``np.argsort(kind="stable")`` and ``np.unique`` would;
:func:`fit_int32` is the width rule of the trace's address-like
columns. A leaf module: it imports only numpy and :mod:`repro.errors`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

__all__ = ["fit_int32", "stable_argsort", "unique_ids"]

_INT32 = np.iinfo(np.int32)


def fit_int32(values) -> np.ndarray:
    """``values`` as int32 when every value fits, and as int64 when not.

    The one width rule of a trace's ``addr`` and ``vertex`` columns and
    the prepass ``lines``: twitter's addresses stay below 2**29, but
    nothing bounds an address space, so a wide range keeps int64 and
    no cast ever wraps.
    """
    col = np.asarray(values)
    if len(col) and (int(col.min()) < _INT32.min
                     or int(col.max()) > _INT32.max):
        return col.astype(np.int64, copy=False)
    return col.astype(np.int32, copy=False)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for any integer array, by radix.

    The keys are offset by their minimum; the span then decides the
    number of 16-bit LSD passes (1 below 2**16, 2 below 2**32, at most
    4). A span below 2**8 (the screen's and the estimator's cache-slot
    sorts) takes one uint8 pass instead, which numpy sorts faster. The
    offset is taken modulo the working width, which is exact because
    every offset key fits in it.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise TraceError(f"stable_argsort needs integer keys, got {keys.dtype}")
    if not len(keys):
        return np.empty(0, dtype=np.intp)
    lo = int(keys.min())
    span = int(keys.max()) - lo
    if span < 1 << 8:
        k = keys.astype(np.uint8)
        k -= np.uint8(lo % (1 << 8))
        return np.argsort(k, kind="stable")
    passes = max(1, -(-span.bit_length() // 16))
    width = (np.uint16, np.uint32, np.uint64, np.uint64)[passes - 1]
    k = keys.astype(width)
    k -= width(lo % (1 << (8 * k.itemsize)))
    order = np.argsort(k.astype(np.uint16, copy=False), kind="stable")
    for p in range(1, passes):
        digit = k[order]
        digit >>= width(16 * p)
        digit = digit.astype(np.uint16)
        if p == passes - 1:
            del k
        step = np.argsort(digit, kind="stable")
        del digit
        order = order[step]
    return order


def unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(ids)`` for ids in ``[0, n)``, via a bool mask.

    Ids outside ``[0, n)`` raise :class:`TraceError` before anything
    else happens, so callers can validate and deduplicate in one step.
    """
    ids = np.asarray(ids)
    if not len(ids):
        return ids.copy()
    lo, hi = int(ids.min()), int(ids.max())
    if lo < 0 or hi >= n:
        raise TraceError(f"ids must lie in [0, {n}), found range [{lo}, {hi}]")
    mask = np.zeros(hi + 1, dtype=bool)
    mask[ids] = True
    return (np.flatnonzero(mask[lo:]) + lo).astype(ids.dtype, copy=False)
