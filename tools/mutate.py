#!/usr/bin/env python3
"""Standing mutation gate for the cache path, the prepass, the estimator,
the timing bounds and the memory budgets.

Each mutant is a (file, old, new) edit that breaks one rule the exact
stages, the estimator, the timing bounds or a memory budget depend on
(a column kept wider or longer than it needs to be is a budget break). For every mutant
the gate copies the working tree (without ``.git``) into a temporary
directory, applies the edit there (the checkout is never touched), and
runs the gate's test files with ``pytest -x``. A mutant must make them fail; one
that survives is a missing test, so the gate exits 1 and names it.
Before the mutants, the unmutated copy must pass, so a kill always
means the edit was caught, not that the tree was already broken.

    python tools/mutate.py    # every mutant, 5-45 s each

``old`` must occur exactly once in its file; an edit that no longer
applies is an error, not a pass. Never drop a mutant that survives:
add the test that kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: The kernel-parity job's file set: the cache path, the estimator, the
#: prepass, the trace and its archive (narrow and wide columns), the
#: memory budgets, and the runtime contracts (timing bounds included).
TESTS = (
    "tests/property/test_kernel_parity.py",
    "tests/property/test_l2_stage.py",
    "tests/property/test_l1_dir_stages.py",
    "tests/property/test_attribution_parity.py",
    "tests/property/test_estimate.py",
    "tests/property/test_intsort.py",
    "tests/memsim/test_cachestate_helpers.py",
    "tests/memsim/test_kernel_block.py",
    "tests/memsim/test_cache_path_reuse.py",
    "tests/memsim/test_dynamic_scratchpad.py",
    "tests/property/test_dynamic_trainer.py",
    "tests/ligra/test_trace.py",
    "tests/ligra/test_segments.py",
    "tests/test_counter_grid.py",
    "tests/property/test_estimate_equivalence.py",
    "tests/property/test_estimate_pieces.py",
    "tests/property/test_prepass_properties.py",
    "tests/memsim/test_memory_budget.py",
    "tests/test_contracts.py",
)

STAGES = "src/repro/memsim/stages.py"
CACHESTATE = "src/repro/memsim/cachestate.py"
ESTIMATE = "src/repro/memsim/estimate.py"
PREPASS = "src/repro/memsim/prepass.py"
CORE_MODEL = "src/repro/memsim/core_model.py"
TRACE = "src/repro/ligra/trace.py"
INTSORT = "src/repro/intsort.py"
GEOMETRY = "src/repro/memsim/geometry.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant(
        "prefetch-last-matching-head", STAGES,
        "                h[index(p)] = x\n",
        "                h[len(h) - 1 - h[::-1].index(p)] = x\n",
    ),
    Mutant(
        "directory-drops-carried-stale-bits", STAGES,
        "    end |= stale & keep_stale[:, None]\n",
        "",
    ),
    Mutant(
        "writeback-ignores-carried-interval", STAGES,
        "prev_owner = np.where(wfirst, owners0[L[wi]], own_g[pg])",
        "prev_owner = np.where(wfirst, -1, own_g[pg])",
    ),
    Mutant(
        "screen-write-after-same-core-read", CACHESTATE,
        "        sw[:-1] & (pcur == pprev + 1),\n",
        "        pcur == pprev + 1,\n",
    ),
    Mutant(
        "dram-ignores-carried-open-row", CACHESTATE,
        "prev[first] = np.array(open_rows, dtype=np.int64)[sch[first]]",
        "prev[first] = -1",
    ),
    Mutant(
        "l1-no-deletions-for-start-holders", CACHESTATE,
        "            ok &= m_r[wpos][target] == m_r\n",
        "            ok &= (m_r[wpos][target] == m_r) & (m_t >= 0)\n",
    ),
    Mutant(
        "lru-walk-off-by-one", STAGES,
        "offs = np.arange(d + 1, d + width + 1, dtype=np.int32)",
        "offs = np.arange(d + 2, d + width + 2, dtype=np.int32)",
    ),
    Mutant(
        "hybrid-ignores-random-ranges", CACHESTATE,
        "            for lo, hi in self.dram._random_ranges:\n"
        "                machine &=",
        "            for lo, hi in ():\n"
        "                machine &=",
    ),
    Mutant(
        "estimate-bank-keys-wrong-shift", ESTIMATE,
        "bank_keys = geometry.bank_keys_of(prepass.lines[miss])",
        "bank_keys = prepass.lines[miss] >> (geometry.bank_bits - 1)",
    ),
    Mutant(
        "estimate-all-cache-reads-banks", ESTIMATE,
        "cores = (piece.core if everything\n",
        "cores = (prepass.banks if everything\n",
    ),
    Mutant(
        "estimate-carry-keeps-ways-minus-one", ESTIMATE,
        "        filled[touched] = np.minimum(filled[touched] + cnt, ways)\n",
        "        filled[touched] = np.minimum(filled[touched] + cnt, ways - 1)\n",
    ),
    Mutant(
        "estimate-carry-dropped-between-pieces", ESTIMATE,
        "        room = np.minimum(ways - rank, filled[touched][run])\n",
        "        room = np.minimum(ways - rank, 0)\n",
    ),
    Mutant(
        "estimate-l2-carry-from-all-events", ESTIMATE,
        "            l2_hit, l2_carry = _look_back(\n"
        "                _slot_column(prepass.banks[miss], bank_keys,"
        " l2.num_sets,\n"
        "                             ncores),\n"
        "                bank_keys, l2.ways, l2_carry,\n"
        "            )\n",
        "            l2_hit, _ = _look_back(\n"
        "                _slot_column(prepass.banks[miss], bank_keys,"
        " l2.num_sets,\n"
        "                             ncores),\n"
        "                bank_keys, l2.ways, l2_carry,\n"
        "            )\n"
        "            every = geometry.bank_keys_of(prepass.lines)\n"
        "            _, l2_carry = _look_back(\n"
        "                _slot_column(prepass.banks, every, l2.num_sets,"
        " ncores),\n"
        "                every, l2.ways, l2_carry,\n"
        "            )\n",
    ),
    Mutant(
        "prepass-banks-int8-above-128-cores", PREPASS,
        "banks=geometry.banks_of(lines).astype(core_dt),",
        "banks=geometry.banks_of(lines).astype(np.int8),",
    ),
    Mutant(
        "estimate-line-offsets-wrap", ESTIMATE,
        "kdt = np.int32 if kmax - kmin <= np.iinfo(np.int32).max"
        " else np.int64",
        "kdt = np.int32",
    ),
    Mutant(
        "lru-order-stays-intp", STAGES,
        "    so = so.astype(np.int32)\n",
        "",
    ),
    Mutant(
        "lru-keeps-shift-columns", STAGES,
        "    del count, span, rise, fall, rest\n",
        "",
    ),
    Mutant(
        "lockstep-table-int64", TRACE,
        "    table = np.empty(m, dtype=np.int32)\n",
        "    table = np.empty(m, dtype=np.int64)\n",
    ),
    Mutant(
        "span-flush-keeps-raw-batches", TRACE,
        "                raw = chunk.pop(name)\n",
        "                raw = chunk[name]\n",
    ),
    Mutant(
        "trace-narrow-ignores-range", INTSORT,
        "    if len(col) and (int(col.min()) < _INT32.min\n"
        "                     or int(col.max()) > _INT32.max):\n"
        "        return col.astype(np.int64, copy=False)\n",
        "",
    ),
    Mutant(
        "span-flush-first-chunk-dtype", TRACE,
        "dtype=np.result_type(\n"
        "                *{chunk[name].dtype for chunk in chunks}))",
        "dtype=chunks[0][name].dtype)",
    ),
    Mutant(
        "lines-narrow-ignores-range", GEOMETRY,
        "return fit_int32(np.asarray(addrs) >> self.line_bits)",
        "return (np.asarray(addrs) >> self.line_bits).astype(np.int32)",
    ),
    Mutant(
        "memo-key-ignores-previous-batch", CACHESTATE,
        "h = hashlib.sha256((prev or self._config_digest()).encode())",
        "h = hashlib.sha256(self._config_digest().encode())",
    ),
    Mutant(
        "memo-hit-applied-at-once", CACHESTATE,
        "                self._held_deltas.append(delta)\n",
        "                self._apply(delta, mem_lat, serial)\n",
    ),
    Mutant(
        "crossbar-bound-ignores-word-bytes", CORE_MODEL,
        "stats.onchip_traffic_bytes / link_peak",
        "stats.onchip_line_bytes / link_peak",
    ),
)


def _copy_tree(dest: Path) -> None:
    """The working tree, as it is, minus git metadata and run outputs."""
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache",
        ".benchmarks", ".perfbench-work", "*-artifacts", ".trace_cache",
    )
    shutil.copytree(ROOT, dest, dirs_exist_ok=True, ignore=ignore)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"mutant {mutant.name}: its old text occurs {count} times in"
            f" {mutant.path}; update the mutant to the current code"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_tests(tree: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider",
           *TESTS]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _check(mutant) -> bool:
    """Whether the test set fails with ``mutant`` applied (None: clean)."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        return _run_tests(tree) != 0


def main() -> int:
    start = time.perf_counter()
    if _check(None):
        print("the unmutated tree fails the gate's tests; fix it first")
        return 1
    print(f"clean tree passes ({time.perf_counter() - start:.1f} s)")
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        killed = _check(m)
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8s} {m.name}  ({time.perf_counter() - start:.1f} s)")
        if not killed:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
