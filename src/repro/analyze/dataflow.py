"""Intraprocedural dataflow: reaching definitions.

:class:`FunctionFlow` is a linear reaching-definitions approximation
over one function body: ``reaching(name, lineno)`` answers "what
expression was last assigned to ``name`` before this line". Linear
(source order, no branch merging) is the right fidelity for a linter:
the codebase's accumulators are defined once, straight-line, before
use. Nothing here imports the code it models — everything is derived
from the AST alone.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["FunctionFlow", "walk_function_body"]


def walk_function_body(func: ast.AST) -> Iterator[ast.AST]:
    """Yield every node of ``func``'s own body, skipping nested defs.

    Nested function/class definitions are their own analysis units —
    statements inside them do not execute when the outer function runs.
    The nested ``def``/``class`` node itself is still yielded (so
    callers can see that it exists), but its body is not entered.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class FunctionFlow:
    """Linear reaching-definitions view of one function body.

    Records, in source order, every binding of a local name: plain and
    annotated assignments keep their value expression; ``with ... as
    name`` keeps the context expression; loop targets and tuple
    unpacking record an *opaque* binding (the binding is known, the
    value is not), which deliberately blocks resolution — a name whose
    last binding is opaque resolves to ``None``.
    """

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        #: name → [(lineno, value expression or None)], source order.
        self._defs: Dict[str, List[Tuple[int, Optional[ast.expr]]]] = {}
        for node in walk_function_body(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind_target(target, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                self._bind_target(node.target, node.value, node.lineno)
            elif isinstance(node, ast.AugAssign):
                # x += e keeps x's original definition (the accumulator
                # target's identity is what the rules ask about).
                continue
            elif isinstance(node, ast.With):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._bind_target(
                            item.optional_vars, item.context_expr,
                            node.lineno,
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_target(node.target, None, node.lineno)
        for defs in self._defs.values():
            defs.sort(key=lambda d: d[0])

    def _bind_target(self, target: ast.expr,
                     value: Optional[ast.expr], lineno: int) -> None:
        if isinstance(target, ast.Name):
            self._defs.setdefault(target.id, []).append((lineno, value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, None, lineno)
        # attribute/subscript targets are not local-name bindings

    # -- queries -------------------------------------------------------
    def reaching(self, name: str, lineno: int) -> Optional[ast.expr]:
        """Value expression of the last binding of ``name`` before
        ``lineno`` (inclusive), or ``None`` when there is none or the
        binding is opaque (loop target, tuple unpack)."""
        best: Optional[Tuple[int, Optional[ast.expr]]] = None
        for defined_at, value in self._defs.get(name, []):
            if defined_at <= lineno:
                best = (defined_at, value)
            else:
                break
        return best[1] if best else None
