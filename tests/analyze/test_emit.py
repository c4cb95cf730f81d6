"""Report emitters: text, omega-repro/lint/v3 JSON, SARIF 2.1.0."""

import json

from repro.analyze import (
    LINT_SCHEMA,
    SARIF_VERSION,
    Finding,
    RuleInfo,
    dump_json,
    to_json,
    to_sarif,
    to_text,
)

RULES = [
    RuleInfo(id="DET001", name="determinism", severity="error",
             description="no entropy in the simulator"),
    RuleInfo(id="SUP001", name="suppression-hygiene", severity="error",
             description="well-formed noqa comments"),
]

FINDINGS = [
    Finding(rule="DET001", severity="error", path="src/repro/a.py",
            line=3, message="wall-clock call"),
    Finding(rule="DET001", severity="warning", path="src/repro/b.py",
            line=0, message="whole-file note"),
]


def test_text_report_lines_and_summary():
    text = to_text(FINDINGS, suppressed=2)
    lines = text.splitlines()
    assert lines[0] == "src/repro/a.py:3: DET001 error: wall-clock call"
    assert lines[-1] == (
        "2 finding(s): 1 error(s), 1 warning(s), 2 suppressed"
    )


def test_json_document_shape():
    doc = to_json(FINDINGS, suppressed=[FINDINGS[0]])
    assert doc["schema"] == LINT_SCHEMA
    assert doc["summary"] == {
        "findings": 2, "errors": 1, "warnings": 1, "suppressed": 1,
    }
    assert set(doc) == {"schema", "summary", "findings", "suppressed"}
    assert doc["findings"][0]["rule"] == "DET001"
    assert doc["findings"][0]["line"] == 3
    assert doc["suppressed"][0]["message"] == "wall-clock call"
    # dump is valid, deterministic JSON
    assert json.loads(dump_json(doc)) == json.loads(dump_json(doc))


def test_sarif_document_validates_against_2_1_0_shape():
    doc = to_sarif(FINDINGS, RULES, tool_version="1.0.0")
    assert doc["version"] == SARIF_VERSION
    assert "sarif-schema-2.1.0.json" in doc["$schema"]
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]

    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert driver["version"] == "1.0.0"
    assert [r["id"] for r in driver["rules"]] == ["DET001", "SUP001"]
    for rule_entry in driver["rules"]:
        assert rule_entry["shortDescription"]["text"]
        assert rule_entry["defaultConfiguration"]["level"] in (
            "error", "warning",
        )

    assert "SRCROOT" in run["originalUriBaseIds"]
    assert len(run["results"]) == len(FINDINGS)
    for result, finding in zip(run["results"], FINDINGS):
        assert result["ruleId"] == finding.rule
        assert result["level"] == finding.severity
        assert result["message"]["text"] == finding.message
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == finding.path
        assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert loc["region"]["startLine"] >= 1
        assert result["ruleIndex"] == 0  # both findings are DET001


def test_sarif_round_trips_through_json():
    doc = to_sarif(FINDINGS, RULES)
    assert json.loads(dump_json(doc)) == doc
