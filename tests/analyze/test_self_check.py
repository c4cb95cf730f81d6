"""The battery over this checkout: clean now, loud when tampered with.

The tamper tests copy ``src/repro`` into a scratch checkout, break one
invariant the way a careless edit would, and assert the battery's exit
code flips to 1 with the right rule — proving the gate actually guards
the invariants it claims to. The untampered copy is linted once per
module; each test tampers with its own copy of that checked tree.
Tampers of rules since replaced by runtime contracts are checked
against those contracts instead (last section).
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from repro.analyze import SUPPRESSION_RULE, rule_ids, run_battery
from repro.core.report import SimReport
from repro.memsim.backends import OmegaBackend
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.stats import MemStats
from repro.obs import timeline

from tests.analyze.conftest import REPO_ROOT
from tests.serve.test_concurrency import submit_while_finishing
from tests.test_contracts import (
    block_drift,
    env_offenders,
    ghost_fields,
    grid_graph,
    run,
    silent_counters,
    uncharged,
)


def test_battery_is_clean_on_this_checkout():
    result = run_battery(REPO_ROOT)
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings
    )
    assert result.ok
    assert result.exit_code() == 0


def test_battery_rules_cover_the_advertised_families():
    ids = set(rule_ids()) | {SUPPRESSION_RULE.id}
    assert ids == {"DET001", "SUP001", "EXC001", "NPY001"}


@pytest.fixture(scope="module")
def pristine_src(tmp_path_factory):
    """A copy of this repo's src tree."""
    root = tmp_path_factory.mktemp("pristine")
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        root / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # Sanity: the untampered copy passes, so any finding below is
    # caused by the tamper itself.
    assert run_battery(root).ok
    return root


@pytest.fixture
def scratch_src(pristine_src, tmp_path):
    """A private copy of the checked pristine tree, free to tamper."""
    shutil.copytree(pristine_src / "src", tmp_path / "src")
    return tmp_path


def _rules_fired(root: Path):
    result = run_battery(root)
    assert result.exit_code() == 1
    return {f.rule for f in result.findings}


def test_wall_clock_in_replay_trips_det001(scratch_src):
    replay = scratch_src / "src/repro/memsim/replay.py"
    with replay.open("a") as fh:
        fh.write(
            "\n\ndef _leak_host_time():\n"
            "    import time\n"
            "    return time.time()\n"
        )
    assert "DET001" in _rules_fired(scratch_src)


def test_builtin_raise_in_library_code_trips_exc001(scratch_src):
    metrics = scratch_src / "src/repro/obs/metrics.py"
    with metrics.open("a") as fh:
        fh.write(
            "\n\ndef _reject(value):\n"
            "    raise ValueError(value)\n"
        )
    assert "EXC001" in _rules_fired(scratch_src)


def test_narrowing_the_replay_accumulator_trips_npy001(scratch_src):
    replay = scratch_src / "src/repro/memsim/replay.py"
    text = replay.read_text()
    needle = "        counts = np.zeros(ncores, dtype=np.int64)\n"
    assert needle in text
    replay.write_text(text.replace(
        needle, "        counts = np.zeros(ncores, dtype=np.int32)\n"
    ))
    assert "NPY001" in _rules_fired(scratch_src)


# -- tampers of rules replaced by the contracts in tests/test_contracts.py
# and tests/serve/test_concurrency.py. The same careless edits, applied
# to live objects or to a copied module, must fail the contract that
# replaced the rule named in each test.
def test_dropping_the_job_manager_lock_trips_rac001(tmp_path, monkeypatch):
    # The careless edit: the worker's success path loses its lock
    # region but keeps its indentation.
    text = (REPO_ROOT / "src/repro/serve/jobs.py").read_text()
    needle = "        with self._lock:\n            job.manifest = manifest\n"
    assert needle in text
    path = tmp_path / "tampered_jobs.py"
    path.write_text(text.replace(
        needle, "        if True:\n            job.manifest = manifest\n"
    ))
    spec = importlib.util.spec_from_file_location("tampered_jobs", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tampered_jobs", module)
    spec.loader.exec_module(module)
    assert submit_while_finishing(module) == ("cold", 2)


def test_deleting_a_reported_counter_trips_cnt001(monkeypatch):
    stats = run(grid_graph("pagerank"), "pagerank", "omega").stats
    as_dict = MemStats.as_dict

    def without_invalidations(self):
        counts = as_dict(self)
        del counts["coherence_invalidations"]
        return counts

    monkeypatch.setattr(MemStats, "as_dict", without_invalidations)
    assert silent_counters(stats) == ["coherence_invalidations"]


def test_dropping_the_route_accounting_trips_rte001(monkeypatch):
    # Omega's account() no longer charges its source-buffer hits.
    monkeypatch.setattr(OmegaBackend, "account", HierarchyBackend.account)
    report = run(grid_graph("sssp"), "sssp", "omega")
    assert uncharged(report) > 0


def test_ambient_env_read_trips_env001(tmp_path):
    ledger = tmp_path / "repro" / "obs" / "ledger.py"
    ledger.parent.mkdir(parents=True)
    shutil.copy(REPO_ROOT / "src" / "repro" / "obs" / "ledger.py", ledger)
    assert env_offenders(tmp_path) == []
    with ledger.open("a") as fh:
        fh.write(
            "\n\ndef _ambient_ledger():\n"
            "    import os\n"
            "    return os.environ.get('REPRO_LEDGER')\n"
        )
    (offender,) = env_offenders(tmp_path)
    assert offender.startswith("repro/obs/ledger.py:")


def test_snapshotting_a_ghost_counter_trips_cnt001(monkeypatch):
    fields = timeline._STAT_FIELDS
    assert "l1_hits" in fields
    monkeypatch.setattr(timeline, "_STAT_FIELDS", tuple(
        "l1_hitz" if name == "l1_hits" else name for name in fields
    ))
    assert ghost_fields() == ["l1_hitz"]


def test_new_manifest_block_without_gating_trips_sch001(monkeypatch):
    manifest = SimReport.manifest
    monkeypatch.setattr(SimReport, "manifest", lambda self: {
        **manifest(self), "zz_new": 0,
    })
    report = run(grid_graph("pagerank"), "pagerank", "baseline")
    assert block_drift(report.manifest()) == [
        "undocumented zz_new", "ungated zz_new",
    ]
