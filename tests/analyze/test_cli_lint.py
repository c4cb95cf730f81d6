"""The ``repro lint`` subcommand: formats, outputs, exit codes."""

import hashlib
import json
import shutil
from pathlib import Path

from repro import __version__
from repro.analyze import rule_ids
from repro.cli import main

from tests.analyze.conftest import REPO_ROOT, fixture_tree

BAD_FIXTURES = (
    "bad_determinism",
    "bad_suppression",
    "bad_exceptions",
    "bad_numpyfold",
)


def test_lint_exits_zero_on_clean_fixture(capsys):
    code = main(["lint", "--root", str(fixture_tree("clean"))])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_exits_one_on_each_bad_fixture(capsys):
    for name in BAD_FIXTURES:
        code = main(["lint", "--root", str(fixture_tree(name))])
        assert code == 1, f"{name} should fail the battery"
        out = capsys.readouterr().out
        assert "error:" in out, f"{name} printed no findings"


def _listing(root: Path):
    """Every file under ``root`` with its mtime (bytecode excluded)."""
    return {
        (p.relative_to(root).as_posix(), p.stat().st_mtime_ns)
        for p in root.rglob("*")
        if p.is_file()
        and not {".git", "__pycache__", ".pytest_cache"} & set(p.parts)
    }


def test_lint_defaults_to_own_checkout(capsys):
    # No --root: lints the checkout the package runs from, which must
    # be clean (the self-check test asserts the same through the API).
    # Neither that run nor one over a fixture may write into the tree
    # it lints.
    fixture = fixture_tree("bad_numpyfold")
    before = (_listing(REPO_ROOT), _listing(fixture))
    assert main(["lint", "--root", str(fixture)]) == 1
    code = main(["lint"])
    capsys.readouterr()
    assert code == 0
    assert (_listing(REPO_ROOT), _listing(fixture)) == before


def test_lint_json_format(capsys):
    code = main([
        "lint", "--root", str(fixture_tree("bad_determinism")),
        "--format", "json",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "omega-repro/lint/v3"
    assert set(doc) == {"schema", "summary", "findings", "suppressed"}
    assert doc["summary"]["errors"] == 1
    assert doc["findings"][0]["rule"] == "DET001"


def test_lint_sarif_to_file(tmp_path, capsys):
    out_path = tmp_path / "lint.sarif"
    code = main([
        "lint", "--root", str(fixture_tree("bad_exceptions")),
        "--format", "sarif", "--out", str(out_path),
    ])
    assert code == 1
    assert f"report: {out_path}" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["version"] == "2.1.0"
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert "EXC001" in rule_ids and "SUP001" in rule_ids
    assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"EXC001"}


def test_lint_rule_subset(capsys):
    # The determinism fixture is clean under every rule but DET001.
    code = main([
        "lint", "--root", str(fixture_tree("bad_determinism")),
        "--rules", "EXC001,NPY001",
    ])
    capsys.readouterr()
    assert code == 0


def test_lint_rules_sup001_runs_only_the_suppression_scan(capsys):
    # SUP001 is in the rule catalog, so it is a valid selection; on
    # its own it runs the noqa-hygiene scan and nothing else.
    code = main([
        "lint", "--root", str(fixture_tree("bad_suppression")),
        "--rules", "SUP001", "--format", "json",
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in doc["findings"]] == ["SUP001", "SUP001"]
    code = main([
        "lint", "--root", str(fixture_tree("bad_determinism")),
        "--rules", "SUP001",
    ])
    capsys.readouterr()
    assert code == 0


def _plant_empty_battery_record(root: Path) -> None:
    """Write the result record an earlier lint cache replayed.

    The cache this tool used to keep lived in ``ROOT/.repro-lint`` +
    ``-cache`` and replayed its ``battery.json`` whenever the
    recorded key matched a digest of the checkout's own files, rule
    ids and version — so a checkout could ship a record with no
    findings and lint clean.
    """
    def digest(text: str) -> str:
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    fmt = "omega-repro/lint" + "-cache/v1"
    src = root / "src"
    files = sorted(
        (p.relative_to(root).as_posix(), digest(p.read_text()))
        for p in (src / "repro").rglob("*.py")
        if "__pycache__" not in p.parts
    )
    payload = {
        "format": fmt, "version": __version__,
        "rules": sorted(set(rule_ids()) | {"SUP001"}),
        "files": files, "docs": [],
    }
    key = digest(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    record = root / (".repro-lint" + "-cache") / "battery.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({
        "format": fmt, "key": key, "findings": [], "suppressed": [],
    }))


def test_a_checkout_cannot_silence_its_own_findings(tmp_path, capsys):
    root = tmp_path / "bad_numpyfold"
    shutil.copytree(fixture_tree("bad_numpyfold"), root)
    _plant_empty_battery_record(root)
    code = main(["lint", "--root", str(root), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["line"]) for f in doc["findings"]] == [
        ("NPY001", 8), ("NPY001", 14),
    ]


def test_lint_unknown_rule_is_usage_error(capsys):
    code = main([
        "lint", "--root", str(REPO_ROOT), "--rules", "NOPE001",
    ])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_bad_root_is_usage_error(tmp_path, capsys):
    code = main(["lint", "--root", str(tmp_path)])
    assert code == 2
    assert "no src/repro package" in capsys.readouterr().err


def test_unknown_rule_fails_before_parsing(tmp_path, capsys):
    # Rule-id resolution happens first: on a root with nothing to
    # parse, the unknown id is still the error that wins.
    code = main(["lint", "--root", str(tmp_path), "--rules", "NOPE001"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "no src/repro package" not in err
