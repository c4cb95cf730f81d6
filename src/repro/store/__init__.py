"""``repro.store`` — persistent, content-addressed trace caching.

See :mod:`repro.store.store` for the design; the package exists so the
store can grow siblings (remote stores, result stores) without moving
the public names.
"""

from repro.store.store import (
    DEFAULT_CAPACITY_BYTES,
    ENV_CACHE_CAPACITY_MB,
    ENV_CACHE_DIR,
    SIDECAR_VERSION,
    ResultMemo,
    StoreEntry,
    TraceStore,
    normalize_kwargs,
    trace_key,
)

__all__ = [
    "DEFAULT_CAPACITY_BYTES",
    "ENV_CACHE_CAPACITY_MB",
    "ENV_CACHE_DIR",
    "SIDECAR_VERSION",
    "ResultMemo",
    "StoreEntry",
    "TraceStore",
    "normalize_kwargs",
    "trace_key",
]
