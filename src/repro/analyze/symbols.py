"""Project symbol table: every function and class definition.

Built from a :class:`~repro.analyze.project.ProjectIndex` by the rules
that chase a value across one function body and its class's
attributes (``NPY001``). Functions and methods are keyed by a
qualified name (``repro.serve.jobs:job_key``,
``repro.serve.jobs:JobManager.submit``); each class records
the ``self.attr = ...`` initializer expressions found anywhere in its
methods. There are no call edges: no rule asks which code reaches
which.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analyze.dataflow import FunctionFlow, walk_function_body

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analyze.project import ProjectIndex

__all__ = ["ClassRef", "FuncRef", "SymbolTable"]


class FuncRef:
    """One function or method definition in the project."""

    def __init__(self, module: str, node: ast.AST,
                 cls: Optional[str]) -> None:
        #: Dotted module name the definition lives in.
        self.module = module
        #: The ``ast.FunctionDef`` / ``ast.AsyncFunctionDef`` node.
        self.node = node
        #: Qualified class key (``module:Class``) for methods.
        self.cls = cls
        self._flow: Optional[FunctionFlow] = None

    @property
    def flow(self) -> FunctionFlow:
        """Reaching-definitions view of this function's body."""
        if self._flow is None:
            self._flow = FunctionFlow(self.node)
        return self._flow


class ClassRef:
    """One class definition and its attribute initializers."""

    def __init__(self, qual: str) -> None:
        #: Qualified class key (``module:Class``).
        self.qual = qual
        #: Attribute name → every ``self.attr = <expr>`` initializer
        #: expression found in the class's methods.
        self.attr_inits: Dict[str, List[ast.expr]] = {}


class SymbolTable:
    """Every function, method and class of one project."""

    def __init__(self, project: "ProjectIndex") -> None:
        #: Qualified name (``module:Class.method``) → definition.
        self.functions: Dict[str, FuncRef] = {}
        #: Qualified class key (``module:Class``) → class.
        self.classes: Dict[str, ClassRef] = {}
        for module in project.iter_modules():
            self._collect(module.name, module.tree.body, "", None)

    def _collect(self, module: str, body: Sequence[ast.stmt],
                 prefix: str, cls: Optional[ClassRef]) -> None:
        # walk compound statements too (a def inside `if`/`try` is
        # still a definition of this scope), without entering nested
        # function/class bodies — those recurse with their own prefix.
        stmts: List[ast.stmt] = list(body)
        while stmts:
            node = stmts.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = f"{prefix}{node.name}"
                self.functions[f"{module}:{local}"] = FuncRef(
                    module, node, cls.qual if cls else None
                )
                if cls is not None:
                    _record_attr_inits(cls, node)
                self._collect(module, node.body, f"{local}.", None)
            elif isinstance(node, ast.ClassDef):
                ref = ClassRef(f"{module}:{prefix}{node.name}")
                self.classes[ref.qual] = ref
                self._collect(module, node.body,
                              f"{prefix}{node.name}.", ref)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    for sub in getattr(node, field, []) or []:
                        if isinstance(sub, ast.ExceptHandler):
                            stmts.extend(sub.body)
                        elif isinstance(sub, ast.stmt):
                            stmts.append(sub)


def _record_attr_inits(cls: ClassRef, method: ast.AST) -> None:
    for node in walk_function_body(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.attr_inits.setdefault(target.attr, []).append(value)
