#!/usr/bin/env python3
"""Where one perfbench pass goes: wall seconds, and memory, per stage.

Sets a perfbench workload up, then runs one in-process pass of its work
under a span tracer and prints, per stage, the calls, the wall seconds
and, with ``--memory``, the largest tracemalloc peak a call reached
above its entry:

    python tools/stages.py estimate-cold --seed 1 --memory

The pass runs on a fresh ``TraceStore`` handle over the set-up's root,
so a warm workload reads its traces from disk and reuses no cache-path
result the set-up left in the handle's memo. The workloads are
``perfbench/workloads.py``'s, imported as they are.

The stages are the program's own tracer spans:

- kernel (category ``replay``): ``screen``, ``l1``, ``dir``,
  ``prefetch``, ``l2`` and ``fold``;
- estimator (``estimate``): ``prepass``, ``route``, ``l1`` and ``l2``;
- generation: ``trace_generation``, and the span flush, which has no
  span of its own, so the tool wraps ``TraceBuilder._flush_span`` in
  one (``ligra/span_flush``);
- store writes: ``trace_store.store``.

Every other span follows them. A listed stage that never ran prints
``-``; :func:`missing` names them, so a renamed span shows up as a gap
and a renamed flush as an error. Timings under ``--memory`` include
tracemalloc's own cost.

After the table come the process's peak resident set (``ru_maxrss``,
which is what perfbench's ``peak_rss_mb`` reads; tracemalloc peaks do
not predict it) and the cache events the pass took from the cache-path
memo instead of replaying them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro import RunContext  # noqa: E402
from repro.ligra.trace import TraceBuilder  # noqa: E402
from repro.obs.tracer import SpanTracer, get_tracer, use_tracer  # noqa: E402
from repro.store import TraceStore  # noqa: E402
from workloads import STORE_CAPACITY, WORKLOADS  # noqa: E402

#: (group, span category, span names) always reported, in this order.
STAGES = (
    ("kernel", "replay", ("screen", "l1", "dir", "prefetch", "l2", "fold")),
    ("estimator", "estimate", ("prepass", "route", "l1", "l2")),
    ("generation", "run", ("trace_generation",)),
    ("generation", "ligra", ("span_flush",)),
    ("store", "run", ("trace_store.store",)),
)

#: (category, name) -> [calls, seconds, peak bytes above entry].
Table = Dict[Tuple[str, str], List[float]]


class StageTracer(SpanTracer):
    """A span tracer that, with ``memory``, records each span's
    tracemalloc peak above its entry as ``args["peak_bytes"]``.

    A span's peak includes its children's: each open span keeps the
    highest peak seen while it was open, and tracemalloc's peak is
    reset at every open and close.
    """

    def __init__(self, memory: bool = False) -> None:
        super().__init__()
        self.memory = memory
        #: [bytes at entry, highest peak so far] per open span.
        self._mem: List[List[int]] = []

    def _carry_peak(self, peak: int) -> None:
        """Hand ``peak`` to the enclosing span and restart the count."""
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()

    def _open(self, span) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self._carry_peak(peak)
            self._mem.append([current, current])
        return super()._open(span)

    def _close(self, span, end: float) -> None:
        super()._close(span, end)
        if self.memory and self._mem:
            entry, seen = self._mem.pop()
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            self._carry_peak(peak)
            self.records[span._index].args["peak_bytes"] = peak - entry


@contextlib.contextmanager
def _span_flush():
    """Wrap ``TraceBuilder._flush_span`` in a ``ligra/span_flush`` span
    of whichever tracer is installed when it runs."""
    original = TraceBuilder._flush_span

    def flush(self) -> None:
        with get_tracer().span("span_flush", cat="ligra"):
            original(self)

    TraceBuilder._flush_span = flush
    try:
        yield
    finally:
        TraceBuilder._flush_span = original


def _no_span(name: str):
    return contextlib.nullcontext()


def profile(workload, seed: int, workdir: Path,
            memory: bool = False) -> Tuple[float, Table, int]:
    """Set ``workload`` up under ``workdir`` and run one traced pass.

    Returns the pass's wall seconds, its stage table and the cache
    events its replays reused from the memo. A cell that fails raises
    ``RuntimeError``.
    """
    setup_root, pass_root = workdir / "setup", workdir / "pass"
    setup_root.mkdir(parents=True)
    pass_root.mkdir(parents=True)
    state = workload.setup(seed, setup_root, _no_span)
    if "context" in state:
        state = dict(state, context=RunContext(store=TraceStore(
            state["context"].store.root, capacity_bytes=STORE_CAPACITY)))
    tracer = StageTracer(memory)
    gc.collect()
    if memory:
        tracemalloc.start()
    try:
        with use_tracer(tracer), _span_flush():
            start = time.perf_counter()
            cells = workload.work(state, pass_root, _no_span)
            seconds = time.perf_counter() - start
    finally:
        if memory:
            tracemalloc.stop()
    errors = [f"{c.name}: {c.error}" for c in cells if c.error]
    if errors:
        raise RuntimeError("; ".join(errors))
    table: Table = {}
    for rec in tracer.records:
        row = table.setdefault((rec.cat, rec.name), [0, 0.0, 0])
        row[0] += 1
        row[1] += rec.dur_us / 1e6
        row[2] = max(row[2], rec.args.get("peak_bytes", 0))
    reused = sum((getattr(c, "kernel", None) or {}).get("reused", 0)
                 for c in cells)
    return seconds, table, reused


def missing(table: Table) -> List[str]:
    """The listed stages that never ran, as ``category/name``."""
    return [f"{cat}/{name}" for _, cat, names in STAGES for name in names
            if (cat, name) not in table]


def render(seconds: float, table: Table, memory: bool) -> str:
    """The stage table as text: listed stages first, then the rest by
    wall seconds."""
    listed = [(group, (cat, name)) for group, cat, names in STAGES
              for name in names]
    known = {key for _, key in listed}
    rest = sorted((key for key in table if key not in known),
                  key=lambda key: -table[key][1])
    lines = [f"pass: {seconds:.3f} s",
             f"{'group':<11}{'stage':<34}{'calls':>7}{'seconds':>10}"
             + (f"{'peak MiB':>10}" if memory else "")]
    for group, key in listed + [("other", key) for key in rest]:
        label = f"{key[0]}/{key[1]}"
        if key not in table:
            lines.append(f"{group:<11}{label:<34}{'-':>7}")
            continue
        calls, secs, peak = table[key]
        line = f"{group:<11}{label:<34}{calls:>7}{secs:>10.3f}"
        if memory:
            line += f"{peak / 2**20:>10.1f}"
        lines.append(line)
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--memory", action="store_true",
                    help="also report each stage's tracemalloc peak")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="stages-") as tmp:
        seconds, table, reused = profile(WORKLOADS[args.workload](),
                                         args.seed, Path(tmp),
                                         memory=args.memory)
    print(f"{args.workload}, seed {args.seed}")
    print(render(seconds, table, args.memory))
    # Linux reports ru_maxrss in KiB.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"process peak RSS: {maxrss:.1f} MiB (ru_maxrss)")
    print(f"memo-reused cache events: {reused}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
