"""Battery runner: parse the project once, run rules, apply noqa.

:func:`run_battery` is the analyzer's one entry point — the CLI, the
CI job, and the self-check test all go through it. It resolves the
rule selection first (an unknown rule id fails fast, before any
parsing), parses the checkout into a
:class:`~repro.analyze.project.ProjectIndex`, runs the selected rules,
scans suppression comments, and splits findings into reported vs
suppressed. Every run is cold: nothing is read from the checkout
besides its sources, and nothing is written to it. Exit-code
semantics live here too: ``1`` when any unsuppressed error-severity
finding remains.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analyze.findings import Finding, RuleInfo, Severity
from repro.analyze.project import ProjectIndex
from repro.analyze.registry import all_rules, get_rule
from repro.analyze.suppress import SUPPRESSION_RULE, scan_suppressions

__all__ = ["BatteryResult", "run_battery"]


class BatteryResult:
    """Outcome of one battery run over one checkout."""

    def __init__(self, findings: List[Finding],
                 suppressed: List[Finding],
                 rules: List[RuleInfo]) -> None:
        #: Unsuppressed findings, sorted.
        self.findings = findings
        #: Findings silenced by well-formed noqa comments.
        self.suppressed = suppressed
        #: Metadata of every rule that ran (for the SARIF rules table).
        self.rules = rules

    @property
    def errors(self) -> List[Finding]:
        """The unsuppressed error-severity findings."""
        return [
            f for f in self.findings if f.severity == Severity.ERROR
        ]

    @property
    def ok(self) -> bool:
        """Whether the battery is clean (no unsuppressed errors)."""
        return not self.errors

    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 unsuppressed errors remain."""
        return 0 if self.ok else 1


def run_battery(
    root: Union[str, Path],
    rules: Optional[Sequence[str]] = None,
) -> BatteryResult:
    """Run the invariant battery over the checkout at ``root``.

    ``rules`` selects a subset by id (default: every registered
    rule); unknown ids raise before anything is parsed, so usage
    errors fail fast. The suppression meta-rule (SUP001) always runs —
    malformed noqa comments are findings regardless of the selection
    — so selecting ``SUP001`` alone runs just that scan.
    """
    # Resolve the selection FIRST: an unknown rule id must fail fast
    # (exit 2 at the CLI) before the project is even parsed.
    if rules is None:
        selected = all_rules()
    else:
        selected = [
            get_rule(rid) for rid in rules if rid != SUPPRESSION_RULE.id
        ]
    infos = [r.info for r in selected] + [SUPPRESSION_RULE]

    project = ProjectIndex(root)
    raw: List[Finding] = []
    for registered in selected:
        raw.extend(registered.check(project))

    suppressions = scan_suppressions(
        project, [r.info.id for r in all_rules()]
    )
    raw.extend(suppressions.findings)

    reported = [f for f in raw if not suppressions.is_suppressed(f)]
    silenced = [f for f in raw if suppressions.is_suppressed(f)]
    reported.sort(key=Finding.sort_key)
    silenced.sort(key=Finding.sort_key)
    return BatteryResult(reported, silenced, infos)
