"""Repository benchmark: fixed-work workloads, counter-checked.

    python3 perfbench/run.py --workload sweep-warm --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The measured work runs in a fresh
child process (``worker.py``) with one BLAS thread, a private store
under ``.perfbench-work/`` that is removed afterwards, and no
``REPRO_*`` environment. The work is a fixed list of cells, never a
time box: ``--seconds`` is accepted for the harness contract and does
not change what is run. The last line of standard output is one JSON
object: ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics.

Every cell's simulated counters (``MemStats`` and total cycles, or the
``ReplayEstimate`` fields) must repeat bit for bit across the passes of
a run and, for seeds with a file under ``expected/``, equal the stored
values. ``--record-expected`` writes that file for the given seed.
See ``NOTES.md``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
WORKLOADS = ("sweep-warm", "estimate-cold", "stream-attributed")
#: Workloads whose cells must all be store hits.
WARM = ("sweep-warm",)
WORKER_TIMEOUT_S = 150
#: Extra fresh processes that only import, for the import-time median.
IMPORT_PROBES = 4

#: Per-layer metrics: name -> unit, in report order.
PER_LAYER = {
    "memsim.cache_path_s": "s",
    "memsim.cache_events": "count",
    "memsim.kernel.screened_fraction": "ratio",
    "memsim.kernel.serialized_events": "count",
    "memsim.kernel.grouped_events": "count",
    "memsim.kernel.generations": "count",
    "memsim.prepass_s": "s",
    "memsim.route_s": "s",
    "memsim.account_s": "s",
    "memsim.timing_energy_s": "s",
    "memsim.estimate_s": "s",
    "memsim.segments": "count",
    "ligra.generate_s": "s",
    "ligra.events": "count",
    "graph.reorder_s": "s",
    "store.store_s": "s",
    "store.load_s": "s",
    "store.adopt_s": "s",
    "store.open_segments_s": "s",
    "store.bytes_written": "bytes",
    "store.hit_ratio": "ratio",
    "obs.attribution_s": "s",
    "core.self_s": "s",
    "host.ref_s": "s",
    "trace.overhead": "ratio",
}


def _child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, trace: int) -> dict:
    """Run one measured child process and return its JSON document."""
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(workdir / "run"), "--out", str(out)]
    env = _child_env(workdir)

    def child(*extra):
        subprocess.run(cmd + list(extra), cwd=ROOT, env=env,
                       stdout=sys.stderr, check=True,
                       timeout=WORKER_TIMEOUT_S)
        return json.loads(out.read_text())

    try:
        imports = [child("--import-only")["import_s"]
                   for _ in range(IMPORT_PROBES)]
        doc = child()
        doc["import_s"] = statistics.median(imports + [doc["import_s"]])
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it


def _normalized(counters):
    """Counters as JSON gives them back (int keys become strings)."""
    return json.loads(json.dumps(counters))


def check_cells(workload: str, cells: list, expected) -> tuple:
    """Count the cells that ran, hit where they must, and match.

    The reference for a cell is its stored counters when ``expected``
    is given, else the first pass's counters in this run.
    """
    reference = dict(expected or {})
    ok = 0
    for cell in cells:
        name = cell["name"]
        counters = _normalized(cell["counters"])
        reason = None
        if cell["error"]:
            reason = cell["error"]
        elif workload in WARM and not cell["hit"]:
            reason = "store miss on a warm cell"
        elif name not in reference and expected is None:
            reference[name] = counters
        elif reference.get(name) != counters:
            reason = "counters differ from the reference"
        if reason is None:
            ok += 1
        else:
            print(f"perfbench: {name} pass {cell['rep']}: {reason}",
                  file=sys.stderr)
    return ok, reference


def floor_rate(passes: list) -> float:
    """Events per host second of the slowest of ``passes``.

    A shared host switches between a contended speed and faster spells
    that last about a minute (see NOTES.md). The slowest pass of a run
    lands on the contended floor far more often than a mean or median
    of the passes lands on any one level, so it repeats best across
    runs; every pass does identical work.
    """
    return min(p["events"] / p["seconds"] for p in passes)


def end_to_end(doc: dict) -> dict:
    return {
        "setup_s": (doc["import_s"] + statistics.median(doc["setup_s"]),
                    "s"),
        "events_per_s": (floor_rate(doc["passes"]), "1/s"),
        "peak_rss_mb": (doc["peak_rss_bytes"] / (1 << 20), "MB"),
    }


def per_layer(doc: dict) -> dict:
    trace = doc["trace"]
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    n = len(traced)
    self_s = {"setup": {}, "work": {}}
    for name, phase, start, end, children in trace["spans"]:
        table = self_s[phase]
        table[name] = table.get(name, 0.0) + end - start - children
    setup_s, work_s = self_s["setup"], self_s["work"]
    setup_c = trace["counts"].get("setup", {})
    work_c = trace["counts"].get("work", {})

    def layer_s(layer):
        return setup_s.get(layer, 0.0) + work_s.get(layer, 0.0) / n

    def count(name):
        return setup_c.get(name, 0) + work_c.get(name, 0) / n

    metrics = {f"{layer}_s": layer_s(layer) for layer in (
        "memsim.cache_path", "memsim.prepass", "memsim.route",
        "memsim.account", "memsim.timing_energy", "memsim.estimate",
        "ligra.generate", "graph.reorder", "store.store", "store.load",
        "store.adopt", "store.open_segments", "obs.attribution",
    )}
    metrics["core.self_s"] = layer_s("core")
    for name in ("memsim.cache_events", "ligra.events",
                 "store.bytes_written"):
        metrics[name] = count(name)
    lookups = work_c.get("store.lookups", 0)
    metrics["store.hit_ratio"] = (
        work_c.get("store.hits", 0) / lookups if lookups else 0.0
    )
    # Kernel telemetry and segment counts from one traced pass (they
    # are deterministic, so every pass gives the same values).
    first = [c for c in doc["cells"] if c["traced"] and c["rep"] == 1]
    kernels = [c["kernel"] for c in first if c["kernel"]]
    events = sum(k.get("events", 0) for k in kernels)
    metrics["memsim.kernel.screened_fraction"] = (
        sum(k.get("screened", 0) for k in kernels) / events if events
        else 0.0
    )
    for key in ("serialized_events", "grouped_events", "generations"):
        metrics[f"memsim.kernel.{key}"] = sum(k.get(key, 0) for k in kernels)
    metrics["memsim.segments"] = sum(c["segments"] for c in first)
    metrics["host.ref_s"] = trace["ref_s"]

    metrics["trace.overhead"] = 1.0 - floor_rate(traced) / floor_rate(plain)
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0,
                    help="accepted for the harness; the work is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="store this run's counters as the seed's"
                         " expected values")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # measured process and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from the"
              " root of a checkout", file=sys.stderr)
        return 2
    try:
        doc = run_worker(args.workload, args.seed, args.trace)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: measured run failed: {exc}", file=sys.stderr)
        return 1

    expected_path = EXPECTED / f"{args.workload}-seed{args.seed}.json"
    expected = None
    if expected_path.exists() and not args.record_expected:
        expected = json.loads(expected_path.read_text())
    cells = doc["cells"]
    ok, reference = check_cells(args.workload, cells, expected)
    if args.record_expected:
        if ok != len(cells):
            print("perfbench: not recording: some cells failed",
                  file=sys.stderr)
            return 1
        EXPECTED.mkdir(exist_ok=True)
        expected_path.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n"
        )
    if expected is not None:
        seen = {c["name"] for c in cells}
        missing = sorted(set(expected) - seen)
        if missing:
            print(f"perfbench: cells not run: {missing}", file=sys.stderr)
    else:
        missing = []

    metrics = per_layer(doc) if args.trace else end_to_end(doc)
    if not args.trace:
        metrics["success_rate"] = (ok / len(cells) if cells else 0.0,
                                   "ratio")
    result = {
        "correct": ok == len(cells) and bool(cells) and not missing,
        "attempted": len(cells),
        "failed": len(cells) - ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
