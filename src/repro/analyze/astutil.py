"""Small AST helpers shared by the rule implementations.

Nothing here is repo-specific: import-alias resolution (so
``np.random.rand`` resolves to ``numpy.random.rand`` regardless of
how numpy was imported) and dotted-name rendering of attribute
chains.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

__all__ = [
    "import_aliases",
    "dotted_name",
    "resolve_call_target",
]


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → fully qualified module/object path.

    ``import numpy as np`` maps ``np → numpy``; ``from datetime
    import datetime`` maps ``datetime → datetime.datetime``; plain
    ``import time`` maps ``time → time``. Only top-of-chain names are
    mapped — attribute chains resolve via
    :func:`resolve_call_target`.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never name stdlib/numpy
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr) -> Optional[List[str]]:
    """Attribute chain as a name list (``a.b.c`` → ``[a, b, c]``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def resolve_call_target(func: ast.expr,
                        aliases: Dict[str, str]) -> Optional[str]:
    """Fully qualified dotted path of a call target, if resolvable.

    Resolves the chain's base name through the module's import
    aliases: with ``import numpy as np``, ``np.random.rand`` becomes
    ``numpy.random.rand``; an unimported base name is returned as
    written (locals shadowing imports are rare enough to ignore for a
    linter).
    """
    parts = dotted_name(func)
    if parts is None:
        return None
    base = aliases.get(parts[0], parts[0])
    return ".".join([base] + parts[1:])
