"""NPY001 — numpy accumulation folds must use 64-bit accumulators.

The trace pipeline folds billions of events into numpy arrays:
``np.add.at(hist, idx, vals)`` scatter-adds and ``hist +=
np.bincount(...)`` histogram merges. Numpy does *not* promote the
accumulator's dtype — an ``int32`` histogram silently wraps at 2³¹
events and the replay statistics come out plausible but wrong. (The
paper's natural-graph traces concentrate most events on a few hot
vertices, so the per-bin counts actually get there.)

This rule finds every accumulation site and chases the accumulator
back to its creation through the intraprocedural reaching-definitions
view (:mod:`repro.analyze.dataflow`) and, for ``self.X`` targets, the
class's recorded attribute initializers:

- explicit ``dtype=np.int64`` / ``np.uint64`` / ``np.float64`` (or
  the equivalent strings and Python ``float``) is safe;
- ``np.zeros/ones/empty/full`` *without* a dtype default to float64 —
  safe;
- ``np.bincount(...)`` itself returns int64 — safe as a source;
- ``np.zeros_like/np.asarray/np.array`` without a dtype inherit the
  argument's dtype, so the chase recurses into the argument;
- ``.astype(d)`` re-classifies to ``d``;
- a narrow dtype (``int32``, ``float32``, bare ``int``) is an error;
- an accumulator whose dtype cannot be determined statically is an
  error too — add an explicit ``dtype=np.int64``/``float64``, or keep
  the narrow width with a reasoned ``# repro: noqa[NPY001] -- why``
  (e.g. a bounded per-window count that provably fits).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analyze.astutil import resolve_call_target
from repro.analyze.dataflow import FunctionFlow, walk_function_body
from repro.analyze.findings import Finding
from repro.analyze.project import ProjectIndex
from repro.analyze.registry import rule
from repro.analyze.symbols import SymbolTable

__all__ = ["check_accumulator_width"]

#: Dotted numpy dtypes that hold a full event count.
_WIDE_DTYPES = frozenset({
    "numpy.int64", "numpy.uint64", "numpy.float64", "numpy.intp",
    "numpy.double",
})

#: dtype string spellings that are 64-bit.
_WIDE_STRINGS = frozenset({
    "int64", "uint64", "float64", "i8", "u8", "f8", "<i8", "<u8", "<f8",
})

#: Creation calls that default to float64 when no dtype is given.
_FLOAT64_DEFAULT = frozenset({
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
})

#: Creation calls that inherit their first argument's dtype.
_INHERIT_ARG0 = frozenset({
    "numpy.zeros_like", "numpy.ones_like", "numpy.empty_like",
    "numpy.full_like", "numpy.asarray", "numpy.array", "numpy.copy",
    "numpy.ascontiguousarray",
})

#: How many creation-chain hops to follow before giving up.
_CHASE_DEPTH = 6


def _classify_dtype(expr: ast.expr, aliases: Dict[str, str]) -> str:
    """'wide' / 'narrow' / 'unknown' for a dtype expression."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return "wide" if expr.value in _WIDE_STRINGS else "narrow"
    if isinstance(expr, ast.Name) and expr.id == "float":
        return "wide"  # Python float is a 64-bit double
    if isinstance(expr, ast.Name) and expr.id == "int":
        return "narrow"  # platform int — int32 on Windows
    dotted = resolve_call_target(expr, aliases)
    if dotted is None:
        return "unknown"
    if dotted in _WIDE_DTYPES:
        return "wide"
    if dotted.startswith("numpy."):
        return "narrow"
    return "unknown"


class _Chase:
    """Chase an accumulator expression back to a creation dtype."""

    def __init__(self, aliases: Dict[str, str],
                 flow: Optional[FunctionFlow],
                 attr_inits: Dict[str, List[ast.expr]]) -> None:
        self.aliases = aliases
        self.flow = flow
        self.attr_inits = attr_inits

    def classify(self, expr: ast.expr, depth: int = 0) -> str:
        if depth > _CHASE_DEPTH:
            return "unknown"
        while isinstance(expr, ast.Subscript):
            expr = expr.value  # hist[k] accumulates into hist
        if isinstance(expr, ast.Name):
            if self.flow is None:
                return "unknown"
            value = self.flow.reaching(expr.id, expr.lineno)
            if value is None:
                return "unknown"
            return self.classify(value, depth + 1)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            inits = self.attr_inits.get(expr.attr, [])
            if not inits:
                return "unknown"
            kinds = {self.classify(i, depth + 1) for i in inits}
            if kinds == {"wide"}:
                return "wide"
            return "narrow" if "narrow" in kinds else "unknown"
        if isinstance(expr, ast.Call):
            return self._classify_creation(expr, depth)
        return "unknown"

    def _classify_creation(self, call: ast.Call, depth: int) -> str:
        func = call.func
        # arr.astype(d) re-types to d
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if call.args:
                return _classify_dtype(call.args[0], self.aliases)
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _classify_dtype(kw.value, self.aliases)
            return "unknown"
        dotted = resolve_call_target(func, self.aliases)
        if dotted is None:
            return "unknown"
        if dotted == "numpy.bincount":
            return "wide"  # bincount counts in int64
        for kw in call.keywords:
            if kw.arg == "dtype":
                return _classify_dtype(kw.value, self.aliases)
        if dotted in _FLOAT64_DEFAULT:
            return "wide"  # numpy's default dtype is float64
        if dotted in _INHERIT_ARG0 and call.args:
            return self.classify(call.args[0], depth + 1)
        return "unknown"


def _fold_sites(
    scope: ast.AST,
    aliases: Dict[str, str],
) -> Iterator[Tuple[str, ast.expr, int]]:
    """(kind, accumulator expr, lineno) accumulation sites in a scope."""
    for node in walk_function_body(scope):
        if isinstance(node, ast.Call):
            dotted = resolve_call_target(node.func, aliases)
            if dotted == "numpy.add.at" and node.args:
                yield "np.add.at", node.args[0], node.lineno
        elif isinstance(node, ast.AugAssign):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    dotted = resolve_call_target(sub.func, aliases)
                    if dotted == "numpy.bincount":
                        yield "np.bincount fold", node.target, node.lineno
                        break


@rule(
    id="NPY001",
    name="accumulator-width",
    description=(
        "np.add.at / np.bincount accumulation targets must be"
        " explicit 64-bit arrays (int64/uint64/float64) or carry a"
        " reasoned width justification"
    ),
)
def check_accumulator_width(project: ProjectIndex) -> Iterator[Finding]:
    """Flag numpy accumulation folds into narrow or unknown dtypes."""
    info = check_accumulator_width.info  # type: ignore[attr-defined]
    symbols = SymbolTable(project)

    for qual in sorted(symbols.functions):
        ref = symbols.functions[qual]
        module = project.modules[ref.module]
        aliases = module.aliases
        cls = symbols.classes.get(ref.cls) if ref.cls else None
        chase = _Chase(
            aliases, ref.flow, cls.attr_inits if cls else {},
        )
        for kind, target, lineno in _fold_sites(ref.node, aliases):
            verdict = chase.classify(target)
            if verdict == "wide":
                continue
            if verdict == "narrow":
                problem = (
                    "accumulates into a narrow dtype; integer"
                    " overflow wraps silently at scale"
                )
            else:
                problem = (
                    "accumulates into an array whose dtype cannot be"
                    " determined statically"
                )
            yield info.finding(
                module.rel_path, lineno,
                f"{kind} {problem}: make the accumulator an explicit"
                " np.int64/np.uint64/np.float64 array, or justify the"
                " width with '# repro: noqa[NPY001] -- why'",
            )
