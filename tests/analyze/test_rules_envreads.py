"""Ambient environment reads, formerly lint rule ENV001, as tamper tests.

The rule is now ``env_offenders`` in ``tests/test_contracts.py``: a
token scan for ``environ``/``getenv`` outside ``repro.core.context``
and the process entry points. Each test scans a mini checkout.
"""

from tests.analyze.conftest import fixture_tree
from tests.test_contracts import env_offenders


def test_getenv_in_library_code_flagged(tree):
    root = tree({
        "src/repro/memsim/knobs.py": """\
            import os

            def scalar_forced():
                return os.getenv("REPRO_SCALAR_CACHE") == "1"
            """,
    })
    assert env_offenders(root / "src") == ["repro/memsim/knobs.py:4"]


def test_environ_get_and_subscript_flagged(tree):
    root = tree({
        "src/repro/store/knobs.py": """\
            import os

            def cache_dir():
                return os.environ.get("REPRO_CACHE_DIR")

            def capacity():
                return os.environ["REPRO_CACHE_CAPACITY_MB"]
            """,
    })
    assert env_offenders(root / "src") == [
        "repro/store/knobs.py:4", "repro/store/knobs.py:7",
    ]


def test_membership_probe_flagged(tree):
    root = tree({
        "src/repro/obs/knobs.py": """\
            import os

            def ledger_enabled():
                return "REPRO_LEDGER" in os.environ
            """,
    })
    assert env_offenders(root / "src") == ["repro/obs/knobs.py:4"]


def test_from_import_alias_resolution(tree):
    root = tree({
        "src/repro/core/run.py": """\
            from os import environ as env, getenv as lookup

            def a():
                return lookup("REPRO_X")

            def b():
                return env.get("REPRO_Y")
            """,
    })
    # The aliases hide the later reads; the import line names both.
    assert env_offenders(root / "src") == ["repro/core/run.py:1"] * 2


def test_context_module_is_allowed(tree):
    root = tree({
        "src/repro/core/context.py": """\
            import os

            def ledger_path_from_env():
                return os.environ.get("REPRO_LEDGER") or None
            """,
    })
    assert env_offenders(root / "src") == []


def test_entry_points_are_allowed(tree):
    root = tree({
        "src/repro/cli.py": """\
            import os

            def debug():
                return os.getenv("REPRO_DEBUG")
            """,
        "src/repro/analyze/project.py": """\
            import os

            def columns():
                return os.environ.get("COLUMNS")
            """,
    })
    assert env_offenders(root / "src") == []


def test_real_checkout_fixture_is_clean():
    assert env_offenders(fixture_tree("clean") / "src") == []
