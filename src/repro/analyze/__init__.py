"""Static-analysis subsystem: AST-based invariant checks for the repo.

The simulator's correctness rests on invariants no unit test sees
whole: counters must flow from increment site to manifest, every
route code must be accounted by the backend that emits it, shared
serve/obs state must be written under its lock, nothing inside the
simulation packages may read entropy, and the docs must match the
constants they quote. ``repro.analyze`` checks all of that statically
— ``repro lint`` on the CLI, :func:`run_battery` from code. Every run
is one cold pass over the checkout's sources and docs: there is no
result cache and no accepted-findings file, so what a checkout ships
can never silence its own findings.

Findings can be suppressed inline with an explicit reason::

    foo = risky()  # repro: noqa[DET001] -- host-side jitter probe

See ``docs/static-analysis.md`` for the rule catalog.
"""

from repro.analyze.callgraph import CallGraph
from repro.analyze.emit import (
    LINT_SCHEMA,
    SARIF_VERSION,
    dump_json,
    to_json,
    to_sarif,
    to_text,
)
from repro.analyze.findings import Finding, RuleInfo, Severity
from repro.analyze.project import AnalysisError, ProjectIndex, SourceModule
from repro.analyze.registry import all_rules, get_rule, rule, rule_ids
from repro.analyze.runner import BatteryResult, run_battery
from repro.analyze.suppress import SUPPRESSION_RULE, Suppressions

__all__ = [
    "LINT_SCHEMA",
    "SARIF_VERSION",
    "AnalysisError",
    "BatteryResult",
    "CallGraph",
    "Finding",
    "ProjectIndex",
    "RuleInfo",
    "SUPPRESSION_RULE",
    "Severity",
    "SourceModule",
    "Suppressions",
    "all_rules",
    "dump_json",
    "get_rule",
    "rule",
    "rule_ids",
    "run_battery",
    "to_json",
    "to_sarif",
    "to_text",
]
