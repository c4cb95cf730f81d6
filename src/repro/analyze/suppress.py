"""``# repro: noqa[RULE]`` suppression comments.

A finding is suppressed by a trailing comment on the flagged line::

    t = time.time()  # repro: noqa[DET001] -- wall-clock for the log banner

The rule list is mandatory (bare ``noqa`` is not honoured — every
suppression names what it silences) and so is the reason after
``--``: a suppression without one is itself a finding (``SUP001``),
as is one naming an unknown rule id. This keeps the battery's
zero-findings guarantee honest — nothing disappears without a
reviewable justification in the diff.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Set, Tuple

from repro.analyze.findings import Finding, RuleInfo, Severity
from repro.analyze.project import ProjectIndex

__all__ = ["SUPPRESSION_RULE", "Suppressions", "scan_suppressions"]

#: The meta-rule malformed suppressions are reported under.
SUPPRESSION_RULE = RuleInfo(
    id="SUP001",
    name="suppression-hygiene",
    severity=Severity.ERROR,
    description=(
        "repro: noqa comments must name known rule ids and carry a"
        " reason after '--'"
    ),
)

#: Anything that looks like an attempted repro suppression.
_ATTEMPT = re.compile(r"#\s*repro:\s*noqa\b(?P<rest>[^#]*)")

#: The well-formed shape: rule list in brackets, ' -- reason' after.
_WELL_FORMED = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
    r"\s*--\s*(?P<reason>\S.*)$"
)


class Suppressions:
    """Parsed suppression table for one project.

    ``is_suppressed(finding)`` answers whether a finding's
    (path, line) carries a well-formed noqa naming its rule;
    ``findings`` holds the SUP001 violations the scan itself produced
    (missing reason, unknown rule id, malformed syntax).
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, int], Set[str]] = {}
        #: Malformed-suppression findings discovered while scanning.
        self.findings: List[Finding] = []

    def add(self, path: str, line: int, rules: Iterable[str]) -> None:
        """Record a well-formed suppression of ``rules`` at a line."""
        self._table.setdefault((path, line), set()).update(rules)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by a suppression comment."""
        if finding.rule == SUPPRESSION_RULE.id:
            return False  # the meta-rule cannot silence itself
        rules = self._table.get((finding.path, finding.line))
        return rules is not None and finding.rule in rules


def scan_suppressions(project: ProjectIndex,
                      known_rules: Iterable[str]) -> Suppressions:
    """Collect every ``# repro: noqa`` comment in the project.

    Well-formed comments land in the suppression table; malformed
    ones (no bracketed rule list, no ``-- reason``, unknown rule id)
    produce SUP001 findings instead, so they can never silently
    swallow a violation.
    """
    known = set(known_rules)
    known.add(SUPPRESSION_RULE.id)
    sup = Suppressions()
    for module in project.iter_modules():
        # A comment is a substring of the source, so a module whose
        # source never matches holds no attempt: skip tokenizing it.
        if _ATTEMPT.search(module.source) is None:
            continue
        # Tokenize so only genuine comments count — the same syntax
        # quoted inside a docstring or error message is not an
        # attempted suppression.
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(module.source).readline
            )
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            continue
        for lineno, text in comments:
            attempt = _ATTEMPT.search(text)
            if attempt is None:
                continue
            match = _WELL_FORMED.search(text)
            if match is None:
                sup.findings.append(SUPPRESSION_RULE.finding(
                    module.rel_path, lineno,
                    "malformed suppression: expected"
                    " '# repro: noqa[RULE001] -- reason'",
                ))
                continue
            rules = [
                r.strip() for r in match.group("rules").split(",")
                if r.strip()
            ]
            unknown = sorted(set(rules) - known)
            if not rules or unknown:
                sup.findings.append(SUPPRESSION_RULE.finding(
                    module.rel_path, lineno,
                    "suppression names unknown rule id(s): "
                    + (", ".join(unknown) if unknown else "(none given)"),
                ))
                continue
            sup.add(module.rel_path, lineno, rules)
    return sup
