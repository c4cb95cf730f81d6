"""Machine-readable bench trajectories: ``BENCH_<name>.json`` files.

The benchmark harness prints tables and archives them as text under
``benchmarks/results/``, which is fine for humans and useless for
trend analysis — the perf trajectory across PRs was effectively
``[]``. This module gives each bench a machine-readable trajectory:
one ``BENCH_<name>.json`` file at the repo root holding a JSON array
of run-ledger-format entries (:func:`repro.obs.ledger.make_entry`,
``kind="bench"``), appended once per invocation. The array shape (vs
the ledger's JSONL) keeps the file a single valid JSON document that
plotting and CI tooling can load directly, while each element stays
interchangeable with ``repro history`` ledger entries.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from repro.errors import ReproError
from repro.obs.ledger import make_entry

__all__ = [
    "BENCH_MANIFEST_SCHEMA",
    "bench_manifest",
    "record_bench",
    "load_bench",
    "bench_baseline_context",
]

#: Schema tag of the minimal manifest a bench entry wraps.
BENCH_MANIFEST_SCHEMA = "omega-repro/bench-manifest/v1"


def bench_manifest(name: str, metrics: Dict,
                   context: Optional[Dict] = None) -> Dict:
    """A minimal manifest-shaped record for one bench invocation.

    ``metrics`` holds the bench's headline numbers (throughputs,
    speedups); ``context`` optionally records what was measured
    (workload, backend, rounds). The shape deliberately mirrors the
    run manifest's top-level fields so ledger tooling can treat both
    uniformly.
    """
    return {
        "schema": BENCH_MANIFEST_SCHEMA,
        "bench": name,
        "metrics": dict(metrics),
        "context": dict(context or {}),
    }


def record_bench(name: str, metrics: Dict, repo_root,
                 context: Optional[Dict] = None) -> str:
    """Append one bench entry to ``<repo_root>/BENCH_<name>.json``.

    Returns the file path written. The file is a JSON array of
    ledger-format entries; a missing file starts a fresh trajectory.
    An existing file that cannot be read as an array raises
    :class:`~repro.errors.ReproError` and is left untouched: it holds
    the trajectory, including the first entry's reference context
    (:func:`bench_baseline_context`). The new array is written to a
    temporary file and renamed over the old one, so a crash mid-write
    never leaves a torn trajectory.
    """
    path = os.path.join(os.fspath(repo_root), f"BENCH_{name}.json")
    entries = []
    if os.path.exists(path):
        try:
            with open(path) as f:
                entries = json.load(f)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"cannot read bench trajectory {path}: {exc}; fix or move"
                " it before recording"
            ) from exc
        if not isinstance(entries, list):
            raise ReproError(
                f"bench trajectory {path} is not a JSON array; fix or move"
                " it before recording"
            )
    entries.append(
        make_entry(bench_manifest(name, metrics, context), kind="bench")
    )
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=f".BENCH_{name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(entries, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_bench(name: str, repo_root) -> list:
    """Read ``<repo_root>/BENCH_<name>.json`` as a list of entries.

    Returns ``[]`` when the trajectory file is missing or unreadable —
    benches treat an empty trajectory as "first run" and fall back to
    their built-in reference constants.
    """
    path = os.path.join(os.fspath(repo_root), f"BENCH_{name}.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return []
    return doc if isinstance(doc, list) else []


def bench_baseline_context(name: str, repo_root, key: str) -> Optional[Dict]:
    """The earliest recorded ``context[key]`` in a bench trajectory.

    Benches use this to seed their reference floor from the ledger
    itself (the first entry's context travels forward unchanged), so
    regenerating the trajectory re-anchors cleanly and hand-edited
    constants cannot silently drift from what was actually measured.
    Returns ``None`` when the trajectory is empty or no entry carries
    ``key``.
    """
    for entry in load_bench(name, repo_root):
        manifest = entry.get("manifest", entry)
        context = manifest.get("context") or {}
        if key in context:
            return context[key]
    return None
