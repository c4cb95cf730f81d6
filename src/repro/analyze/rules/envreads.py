"""ENV001 — environment reads belong in ``repro.core.context``.

The run-context refactor made process configuration a *value*: every
``REPRO_*`` variable is resolved exactly once, in
:meth:`repro.core.context.RunContext.from_env` (and its ``*_from_env``
helpers), and flows to consumers as :class:`RunContext` fields. An
``os.environ`` read anywhere else in the library reintroduces ambient
state — two concurrent runs could again observe each other's
configuration, and a sweep worker could silently diverge from its
parent. This rule makes the boundary machine-checked.

Flagged anywhere in ``repro`` outside the allow-list:

- calls: ``os.getenv(...)``, ``os.environ.get/setdefault/pop(...)``;
- subscripts: ``os.environ[...]`` (read or write);
- membership tests: ``... in os.environ``.

Allowed: :mod:`repro.core.context` itself (the single resolution
point) and process entry points (:mod:`repro.cli`,
``repro.__main__``, and the :mod:`repro.analyze` tooling), which may
consult the environment for process-level concerns but must hand the
library values, never ambient state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analyze.astutil import dotted_name
from repro.analyze.findings import Finding
from repro.analyze.project import ProjectIndex, SourceModule
from repro.analyze.registry import rule

__all__ = ["check_env_reads"]

#: Modules where environment access is legitimate: the one resolution
#: point, plus process entry points.
ALLOWED_MODULES = ("repro.core.context", "repro.cli", "repro.__main__")

#: Package prefixes with the same exemption (developer tooling).
ALLOWED_PACKAGES = ("repro.analyze",)

#: Fully-qualified call targets that read (or mutate) the environment.
_ENV_CALLS = (
    "os.getenv",
    "os.environ.get",
    "os.environ.setdefault",
    "os.environ.pop",
)

_REMEDY = (
    "; resolve it through repro.core.context (RunContext.from_env /"
    " a *_from_env helper) and pass the value down"
)


def _is_allowed(module: SourceModule) -> bool:
    if module.name in ALLOWED_MODULES:
        return True
    return any(
        module.name == p or module.name.startswith(p + ".")
        for p in ALLOWED_PACKAGES
    )


def _resolve(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of an attribute chain, if static."""
    parts = dotted_name(node)
    if parts is None:
        return None
    base = aliases.get(parts[0], parts[0])
    return ".".join([base] + parts[1:])


@rule(
    id="ENV001",
    name="env-reads",
    description=(
        "os.environ / os.getenv access outside repro.core.context and"
        " the process entry points; configuration must flow through"
        " RunContext values"
    ),
)
def check_env_reads(project: ProjectIndex) -> Iterator[Finding]:
    """Flag ambient environment access outside the context module."""
    info = check_env_reads.info  # type: ignore[attr-defined]
    for module in project.iter_modules("repro"):
        if _is_allowed(module):
            continue
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = _resolve(node.func, aliases)
                if target in _ENV_CALLS:
                    yield info.finding(
                        module.rel_path, node.lineno,
                        f"environment read {target}(){_REMEDY}",
                    )
            elif isinstance(node, ast.Subscript):
                target = _resolve(node.value, aliases)
                if target == "os.environ":
                    yield info.finding(
                        module.rel_path, node.lineno,
                        f"environment access os.environ[...]{_REMEDY}",
                    )
            elif isinstance(node, ast.Compare):
                for op, comp in zip(node.ops, node.comparators):
                    if not isinstance(op, (ast.In, ast.NotIn)):
                        continue
                    target = _resolve(comp, aliases)
                    if target == "os.environ":
                        yield info.finding(
                            module.rel_path, node.lineno,
                            f"environment probe `in os.environ`{_REMEDY}",
                        )
