"""DET001 — the simulator must be a pure function of its inputs.

Every headline claim (speedup ratios, 0-tolerance kernel parity,
bit-identical warm-cache counters) assumes that replaying the same
trace yields the same numbers. Inside the simulation packages
(``repro.memsim``, ``repro.core``, ``repro.ligra``) this rule bans
the classic entropy leaks:

- wall-clock reads that could feed results (``time.time``,
  ``datetime.now`` and friends) — ``time.perf_counter`` stays legal
  because the telemetry layer timestamps *host* duration, never
  simulated state;
- any random number generation, seeded or not (randomness belongs in
  the workload generators under ``repro.graph``/``repro.algorithms``);
- direct iteration over ``set`` values, whose order depends on
  ``PYTHONHASHSEED`` for strings (wrap in ``sorted(...)``).

Package-wide (all of ``repro``), the legacy global-state numpy RNG
(``np.random.rand`` etc.) and unseeded ``default_rng()`` are banned:
even workload generators must thread an explicit seed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.astutil import resolve_call_target
from repro.analyze.findings import Finding
from repro.analyze.project import ProjectIndex, SourceModule
from repro.analyze.registry import rule

__all__ = ["check_determinism"]

#: Packages where the no-entropy rules apply in full.
SIM_PACKAGES = ("repro.memsim", "repro.core", "repro.ligra")

#: Clock calls that leak wall-time into simulation scope.
_FORBIDDEN_CLOCKS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Call-path prefixes that mean "random numbers".
_RNG_PREFIXES = ("random.", "numpy.random.")


def _in_sim_scope(module: SourceModule) -> bool:
    return any(
        module.name == p or module.name.startswith(p + ".")
        for p in SIM_PACKAGES
    )


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` evaluates to a set with unstable order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@rule(
    id="DET001",
    name="determinism",
    description=(
        "no wall-clock or RNG calls and no set-order iteration inside"
        " the simulation packages; no global-state or unseeded numpy"
        " RNG anywhere"
    ),
)
def check_determinism(project: ProjectIndex) -> Iterator[Finding]:
    """Flag entropy sources that would break replay determinism."""
    info = check_determinism.info  # type: ignore[attr-defined]
    for module in project.iter_modules("repro"):
        aliases = module.aliases
        sim_scope = _in_sim_scope(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = resolve_call_target(node.func, aliases)
                if target is None:
                    continue
                if sim_scope and target in _FORBIDDEN_CLOCKS:
                    yield info.finding(
                        module.rel_path, node.lineno,
                        f"wall-clock call {target}() inside the"
                        " simulation packages; simulated results must"
                        " not depend on host time"
                        " (time.perf_counter is allowed for host-side"
                        " telemetry)",
                    )
                elif target == "numpy.random.default_rng":
                    if not node.args and not node.keywords:
                        yield info.finding(
                            module.rel_path, node.lineno,
                            "unseeded numpy.random.default_rng();"
                            " thread an explicit seed so runs are"
                            " reproducible",
                        )
                    elif sim_scope:
                        yield info.finding(
                            module.rel_path, node.lineno,
                            "RNG construction inside the simulation"
                            " packages; randomness belongs in the"
                            " workload generators"
                            " (repro.graph / repro.algorithms)",
                        )
                elif target.startswith(_RNG_PREFIXES):
                    if sim_scope:
                        yield info.finding(
                            module.rel_path, node.lineno,
                            f"RNG call {target}() inside the"
                            " simulation packages; replay must be"
                            " deterministic",
                        )
                    else:
                        yield info.finding(
                            module.rel_path, node.lineno,
                            f"global-state RNG call {target}(); use"
                            " numpy.random.default_rng(seed) so the"
                            " stream is isolated and seeded",
                        )
            elif sim_scope and isinstance(
                node, (ast.For, ast.AsyncFor)
            ) and _is_set_expr(node.iter):
                yield info.finding(
                    module.rel_path, node.lineno,
                    "iteration over a set inside the simulation"
                    " packages; set order depends on PYTHONHASHSEED —"
                    " wrap in sorted(...)",
                )
            elif sim_scope and isinstance(node, ast.comprehension) \
                    and _is_set_expr(node.iter):
                yield info.finding(
                    module.rel_path, node.iter.lineno,
                    "comprehension over a set inside the simulation"
                    " packages; set order depends on PYTHONHASHSEED —"
                    " wrap in sorted(...)",
                )
