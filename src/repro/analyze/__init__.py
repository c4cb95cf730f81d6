"""Static-analysis subsystem: AST-based invariant checks for the repo.

Some invariants sit on code paths a run does not execute, so no
runtime test sees them: nothing inside the simulation packages may
read entropy, library code raises only ``ReproError`` subclasses,
and counter folds accumulate at 64 bits. ``repro.analyze`` checks
those statically — ``repro lint`` on the CLI, :func:`run_battery` from
code. Invariants a plain test can check on live runs (counters,
routes, manifest blocks) or with a token scan (environment reads,
documented flags and variables) live in ``tests/test_contracts.py``
instead; the lock discipline of shared serve state is checked by
forcing interleavings in ``tests/serve/test_concurrency.py``. Every
run is one cold pass over the checkout's sources: there is no result
cache and no accepted-findings file, so what a checkout ships can
never silence its own findings.

Findings can be suppressed inline with an explicit reason::

    foo = risky()  # repro: noqa[DET001] -- host-side jitter probe

See ``docs/static-analysis.md`` for the rule catalog.
"""

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
