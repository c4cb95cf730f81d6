"""Render battery results as text, JSON, or SARIF 2.1.0.

The text form is for humans at the terminal; the JSON form
(``omega-repro/lint/v3``) is a stable machine surface for scripts;
the SARIF form follows the 2.1.0 document shape so CI code-scanning
uploads and editors can ingest it.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analyze.findings import Finding, RuleInfo, Severity

__all__ = ["LINT_SCHEMA", "SARIF_VERSION", "to_text", "to_json", "to_sarif"]

#: Schema tag of the machine-readable JSON report. v3 dropped v2's
#: accepted-findings list and its summary count.
LINT_SCHEMA = "omega-repro/lint/v3"

#: SARIF specification version emitted by :func:`to_sarif`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Finding severity → SARIF result level.
_SARIF_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def to_text(findings: List[Finding], suppressed: int = 0) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.format() for f in findings]
    n_err = sum(1 for f in findings if f.severity == Severity.ERROR)
    n_warn = len(findings) - n_err
    summary = (
        f"{len(findings)} finding(s): {n_err} error(s),"
        f" {n_warn} warning(s), {suppressed} suppressed"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def _finding_dict(f: Finding) -> Dict[str, object]:
    return {
        "rule": f.rule,
        "severity": f.severity,
        "path": f.path,
        "line": f.line,
        "message": f.message,
    }


def to_json(findings: List[Finding],
            suppressed: List[Finding]) -> Dict[str, object]:
    """Machine-readable report document (``omega-repro/lint/v3``)."""
    return {
        "schema": LINT_SCHEMA,
        "summary": {
            "findings": len(findings),
            "errors": sum(
                1 for f in findings if f.severity == Severity.ERROR
            ),
            "warnings": sum(
                1 for f in findings if f.severity == Severity.WARNING
            ),
            "suppressed": len(suppressed),
        },
        "findings": [_finding_dict(f) for f in findings],
        "suppressed": [_finding_dict(f) for f in suppressed],
    }


def to_sarif(findings: List[Finding],
             rules: List[RuleInfo],
             tool_version: str = "0") -> Dict[str, object]:
    """SARIF 2.1.0 document for CI code-scanning ingestion.

    One run, one driver (``repro-lint``), every registered rule in
    the driver's rules table (so suppressed-to-zero batteries still
    advertise what was checked), one result per finding with a
    repo-relative artifact location.
    """
    rule_index = {info.id: i for i, info in enumerate(rules)}
    results: List[Dict[str, object]] = []
    for f in findings:
        result: Dict[str, object] = {
            "ruleId": f.rule,
            "level": _SARIF_LEVELS.get(f.severity, "warning"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ],
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": tool_version,
                        "informationUri": (
                            "https://github.com/omega-repro/omega-repro"
                        ),
                        "rules": [
                            {
                                "id": info.id,
                                "name": info.name,
                                "shortDescription": {
                                    "text": info.description
                                },
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS.get(
                                        info.severity, "warning"
                                    ),
                                },
                            }
                            for info in rules
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"description": {
                        "text": "repository checkout root",
                    }},
                },
                "results": results,
            }
        ],
    }


def dump_json(doc: Dict[str, object]) -> str:
    """Pretty-print a report document deterministically."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
