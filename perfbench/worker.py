"""One measured benchmark process (started by ``run.py``).

Runs in a fresh process so that its peak RSS belongs to this run
alone. It times its own imports, then runs the fixed work several
times, setting the workload up afresh between passes, and reports each
set-up's host seconds and each pass's events and host seconds. With
``--trace 1`` it instead sets up once under the layer recorder and
alternates untraced and traced work passes, so the tracing overhead is
measured in the same process. Everything goes to ``--out`` as one JSON document; the
parent checks the counters and prints the result.

    python3 perfbench/worker.py --workload sweep-warm --seed 1 \
        --trace 0 --workdir DIR --out result.json
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: Work passes per run: about 30 s of timed work, 40 s for sweep-warm,
#: whose speed swings most with the host (see NOTES.md).
PASSES = {"sweep-warm": 7, "estimate-cold": 9, "stream-attributed": 3}
#: Set-ups per run, spread evenly between the passes; ``setup_s`` adds
#: their median to the median import time (this process plus the
#: ``--import-only`` probes the parent runs).
SETUPS = 5


def reference_kernel() -> float:
    """Seconds for a fixed numpy + interpreter loop (host drift probe)."""
    data = np.random.default_rng(12345).integers(0, 1 << 20, 1 << 20)
    start = time.perf_counter()
    np.sort(data)
    np.bincount(data & 0xFFFF)
    acc = 0
    for x in range(200_000):
        acc += x & 7
    return time.perf_counter() - start


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _timed_pass(workload, state, root: Path, span):
    gc.collect()
    start = time.perf_counter()
    cells = workload.work(state, root, span)
    seconds = time.perf_counter() - start
    return cells, seconds


def _cell_doc(cell, rep: int, traced: bool) -> dict:
    doc = dict(vars(cell))
    doc.update(rep=rep, traced=traced)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--import-only", action="store_true",
                    help="only time the imports (a set-up sample)")
    args = ap.parse_args()
    if args.import_only:
        with open(args.out, "w") as f:
            json.dump({"import_s": IMPORT_S}, f)
        return 0

    workload = WORKLOADS[args.workload]()
    work = Path(args.workdir)
    passes = PASSES[args.workload]
    rec = layers.Recorder()
    span = rec.span
    doc = {"import_s": IMPORT_S, "setup_s": [], "passes": [], "cells": []}

    if not args.trace:
        # Set-ups spread between the passes sample the same host
        # conditions; each serves the passes that follow it.
        setup_before = [j * passes // SETUPS for j in range(SETUPS)]
        for rep in range(passes):
            for _ in range(setup_before.count(rep)):
                root = _fresh(work / "setup")
                gc.collect()
                start = time.perf_counter()
                state = workload.setup(args.seed, root, span)
                doc["setup_s"].append(time.perf_counter() - start)
            cells, seconds = _timed_pass(
                workload, state, _fresh(work / "pass"), span
            )
            doc["passes"].append({
                "events": sum(c.events for c in cells),
                "seconds": seconds, "traced": False,
            })
            doc["cells"] += [_cell_doc(c, rep, False) for c in cells]
    else:
        layers.install(rec)
        rec.active = True
        state = workload.setup(args.seed, _fresh(work / "setup"), span)
        rec.active = False
        rec.phase = "work"
        ref_s = []
        # Untraced and traced passes alternate, so host drift hits
        # both sides of trace.overhead alike.
        for rep in range(2 * max(1, passes // 2)):
            traced = rep % 2 == 1
            ref_s.append(reference_kernel())
            rec.active = traced
            cells, seconds = _timed_pass(
                workload, state, _fresh(work / "pass"), span
            )
            rec.active = False
            doc["passes"].append({
                "events": sum(c.events for c in cells),
                "seconds": seconds, "traced": traced,
            })
            doc["cells"] += [_cell_doc(c, rep, traced) for c in cells]
        rec.uninstall()
        doc["trace"] = {
            "counts": rec.counts,
            "spans": rec.spans,
            "ref_s": statistics.median(ref_s),
        }

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc["peak_rss_bytes"] = rss if sys.platform == "darwin" else rss * 1024
    with open(args.out, "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
