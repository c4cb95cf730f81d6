"""The battery over this checkout: clean now, loud when tampered with.

The tamper tests copy ``src/repro`` into a scratch checkout, break one
invariant the way a careless edit would, and assert the battery's exit
code flips to 1 with the right rule — proving the gate actually guards
the invariants it claims to. The untampered copy is linted once per
module; each test tampers with its own copy of that checked tree.
"""

import shutil
from pathlib import Path

import pytest

from repro.analyze import SUPPRESSION_RULE, rule_ids, run_battery

from tests.analyze.conftest import REPO_ROOT


def test_battery_is_clean_on_this_checkout():
    result = run_battery(REPO_ROOT)
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings
    )
    assert result.ok
    assert result.exit_code() == 0


def test_battery_rules_cover_the_advertised_families():
    ids = set(rule_ids()) | {SUPPRESSION_RULE.id}
    assert ids == {"DET001", "CNT001", "RTE001", "DOC001", "SUP001",
                   "ENV001", "RAC001", "EXC001", "NPY001", "SCH001"}


@pytest.fixture(scope="module")
def pristine_src(tmp_path_factory):
    """A copy of this repo's src tree (no docs → doc rules stay quiet)."""
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


def test_deleting_a_reported_counter_trips_cnt001(scratch_src):
    # coherence_invalidations is reported ONLY through as_dict — the
    # counters the timeline snapshot or the attribution fold also carry
    # would stay conserved through those surfaces after this tamper.
    stats = scratch_src / "src/repro/memsim/stats.py"
    text = stats.read_text()
    needle = (
        '            "coherence_invalidations":'
        ' self.coherence_invalidations,\n'
    )
    assert needle in text
    stats.write_text(text.replace(needle, ""))
    assert "CNT001" in _rules_fired(scratch_src)


def test_wall_clock_in_replay_trips_det001(scratch_src):
    replay = scratch_src / "src/repro/memsim/replay.py"
    with replay.open("a") as fh:
        fh.write(
            "\n\ndef _leak_host_time():\n"
            "    import time\n"
            "    return time.time()\n"
        )
    assert "DET001" in _rules_fired(scratch_src)


def test_dropping_the_route_accounting_trips_rte001(scratch_src):
    omega = scratch_src / "src/repro/memsim/backends/omega.py"
    text = omega.read_text()
    needle = '        idx = np.flatnonzero(routes == ROUTE_SRCBUF_HIT)\n'
    assert needle in text
    omega.write_text(text.replace(needle, ""))
    assert "RTE001" in _rules_fired(scratch_src)


def test_ambient_env_read_trips_env001(scratch_src):
    ledger = scratch_src / "src/repro/obs/ledger.py"
    with ledger.open("a") as fh:
        fh.write(
            "\n\ndef _ambient_ledger():\n"
            "    import os\n"
            "    return os.environ.get('REPRO_LEDGER')\n"
        )
    assert "ENV001" in _rules_fired(scratch_src)


def test_snapshotting_a_ghost_counter_trips_cnt001(scratch_src):
    timeline = scratch_src / "src/repro/obs/timeline.py"
    text = timeline.read_text()
    needle = '    "l1_hits",\n'
    assert needle in text
    timeline.write_text(text.replace(needle, '    "l1_hitz",\n'))
    assert "CNT001" in _rules_fired(scratch_src)


def test_dropping_the_job_manager_lock_trips_rac001(scratch_src):
    # The careless edit: the manifest write in the worker thread loses
    # its lock region but keeps its indentation.
    jobs = scratch_src / "src/repro/serve/jobs.py"
    text = jobs.read_text()
    needle = "        with self._lock:\n            job.manifest = manifest\n"
    assert needle in text
    jobs.write_text(text.replace(
        needle, "        if True:\n            job.manifest = manifest\n"
    ))
    assert "RAC001" in _rules_fired(scratch_src)


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


def test_new_manifest_block_without_gating_trips_sch001(scratch_src):
    # scratch_src ships no docs tree, so only the KNOWN_BLOCKS half of
    # the sync check can fire — which is exactly the tampered half.
    report = scratch_src / "src/repro/core/report.py"
    text = report.read_text()
    needle = '            "telemetry": self.telemetry(),\n'
    assert needle in text
    report.write_text(text.replace(
        needle, '            "zz_new": 0,\n' + needle
    ))
    assert "SCH001" in _rules_fired(scratch_src)
