"""RAC001 — lock discipline for state shared across thread roots.

PR 9 made the library genuinely multi-threaded: ``repro serve`` runs
jobs on a worker pool and answers requests on per-connection threads.
A data race there doesn't crash — it silently corrupts the warm-cache
bookkeeping or the counters the smoke tests gate on. This rule makes
the locking discipline machine-checked, using the whole-program call
graph (:meth:`ProjectIndex.call_graph`):

For every class in ``repro.serve`` / ``repro.obs``, every ``self.X``
instance attribute is attributed to the *thread roots* that can reach
a method touching it — the ambient main thread, each
``threading.Thread(target=...)`` spawn, each ``ThreadPoolExecutor``
submit site (many threads), and each ``do_*`` request-handler method
(many threads). When an attribute is reachable from more than one
thread (two distinct roots, or one many-thread root), every write to
it outside ``__init__`` must satisfy one of:

- execute inside a ``with self.<lock>:`` region (a ``threading.Lock``
  / ``RLock`` / ``Condition`` attribute, or any attribute whose name
  contains ``lock``);
- the attribute is intrinsically thread-safe: initialized as
  ``threading.local()``, ``Event``, ``Queue``, a lock itself, or an
  executor;
- the attribute is named in a class-level
  ``_RAC_SINGLE_WRITER = ("attr", ...)`` declaration — the reviewed
  statement that exactly one thread ever writes it;
- an explicit ``# repro: noqa[RAC001] -- reason`` suppression.

``__init__`` writes are exempt: the object is not published to other
threads until its constructor returns.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analyze.astutil import resolve_call_target
from repro.analyze.callgraph import CallGraph, ClassRef
from repro.analyze.dataflow import LockContext, walk_function_body
from repro.analyze.findings import Finding
from repro.analyze.project import ProjectIndex
from repro.analyze.registry import rule

__all__ = ["check_lock_discipline"]

#: Packages whose classes are held to the lock discipline.
SHARED_STATE_PACKAGES = ("repro.serve", "repro.obs")

#: Constructor types that make an attribute intrinsically thread-safe.
_THREADSAFE_TYPES = frozenset({
    "threading.local",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "threading.Barrier",
    "queue.Queue",
    "queue.SimpleQueue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "collections.deque",
    "concurrent.futures.ThreadPoolExecutor",
})

#: Lock constructor types (for recognizing ``with self.<attr>:``).
_LOCK_TYPES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "discard", "remove", "clear", "pop", "popleft", "popitem",
    "setdefault", "update", "move_to_end", "sort", "reverse", "write",
})

#: Class-level declaration naming reviewed single-writer attributes.
SINGLE_WRITER_DECL = "_RAC_SINGLE_WRITER"


class _Access:
    """One ``self.X`` touch inside one method."""

    def __init__(self, attr: str, method_qual: str, method_name: str,
                 lineno: int, is_write: bool, under_lock: bool) -> None:
        self.attr = attr
        self.method_qual = method_qual
        self.method_name = method_name
        self.lineno = lineno
        self.is_write = is_write
        self.under_lock = under_lock


def _self_attr(node: ast.expr) -> "str | None":
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attr(node: ast.expr) -> "str | None":
    """``self.X`` at the base of a subscript chain (``self.X[k]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr(node)


def _attr_type(graph: CallGraph, cls: ClassRef, attr: str,
               aliases: Dict[str, str]) -> "str | None":
    """Dotted constructor type of ``self.attr``'s initializer."""
    for init in cls.attr_inits.get(attr, []):
        if isinstance(init, ast.Call):
            dotted = resolve_call_target(init.func, aliases)
            if dotted is not None:
                return dotted
    return None


def _is_lock_attr(graph: CallGraph, cls: ClassRef, attr: str,
                  aliases: Dict[str, str]) -> bool:
    if "lock" in attr.lower():
        return True
    return _attr_type(graph, cls, attr, aliases) in _LOCK_TYPES


def _single_writer_decl(cls: ClassRef) -> Set[str]:
    """Attributes declared single-writer at class level."""
    for node in cls.node.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id == SINGLE_WRITER_DECL):
            continue
        try:
            value = ast.literal_eval(node.value)
        except (ValueError, SyntaxError):
            return set()
        if isinstance(value, (tuple, list, set, frozenset)):
            return {v for v in value if isinstance(v, str)}
    return set()


def _collect_accesses(graph: CallGraph, cls: ClassRef,
                      aliases: Dict[str, str]) -> List[_Access]:
    accesses: List[_Access] = []

    def lockish(expr: ast.expr) -> bool:
        attr = _self_attr(expr)
        return attr is not None and _is_lock_attr(graph, cls, attr,
                                                  aliases)

    for method_name, method in sorted(cls.methods.items()):
        locks = LockContext(method.node, lockish)
        writes: Dict[int, Set[str]] = {}

        def record_write(attr: "str | None", lineno: int) -> None:
            if attr is not None:
                writes.setdefault(lineno, set()).add(attr)

        for node in walk_function_body(method.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record_write(_base_self_attr(target), node.lineno)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                record_write(_base_self_attr(node.target), node.lineno)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    record_write(_base_self_attr(target), node.lineno)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    record_write(_base_self_attr(func.value), node.lineno)
        seen_reads: Set[Tuple[str, int]] = set()
        for node in walk_function_body(method.node):
            attr = _self_attr(node)
            if attr is None:
                continue
            lineno = node.lineno
            if attr in writes.get(lineno, ()):  # recorded as a write
                accesses.append(_Access(
                    attr, method.qual, method_name, lineno,
                    is_write=True, under_lock=locks.covers(lineno),
                ))
                writes[lineno].discard(attr)
            elif (attr, lineno) not in seen_reads:
                seen_reads.add((attr, lineno))
                accesses.append(_Access(
                    attr, method.qual, method_name, lineno,
                    is_write=False, under_lock=locks.covers(lineno),
                ))
    return accesses


@rule(
    id="RAC001",
    name="lock-discipline",
    description=(
        "instance attributes of repro.serve/repro.obs classes written"
        " from more than one thread root must be written under a held"
        " lock, be intrinsically thread-safe, or be declared"
        " single-writer"
    ),
)
def check_lock_discipline(project: ProjectIndex) -> Iterator[Finding]:
    """Flag unguarded writes to state shared across thread roots."""
    info = check_lock_discipline.info  # type: ignore[attr-defined]
    graph = project.call_graph()
    roots = graph.thread_roots()
    if len(roots) <= 1:
        return  # no spawn/handler sites → nothing is concurrent
    reach = {root.label: graph.reachable(root.entries) for root in roots}

    for cls in graph.classes_in(SHARED_STATE_PACKAGES):
        module = project.get(cls.module)
        if module is None:  # pragma: no cover - classes come from modules
            continue
        aliases = module.aliases
        accesses = _collect_accesses(graph, cls, aliases)
        if not accesses:
            continue
        declared = _single_writer_decl(cls)
        by_attr: Dict[str, List[_Access]] = {}
        for access in accesses:
            by_attr.setdefault(access.attr, []).append(access)
        for attr in sorted(by_attr):
            if attr not in cls.attr_inits:
                # Never assigned by this class — base-class state
                # (e.g. BaseHTTPRequestHandler's per-connection
                # wfile), managed outside this class's discipline.
                continue
            touches = by_attr[attr]
            hit_roots = [
                root for root in roots
                if any(t.method_qual in reach[root.label] for t in touches)
            ]
            many = any(root.many for root in hit_roots)
            if len(hit_roots) < 2 and not many:
                continue
            if _is_lock_attr(graph, cls, attr, aliases):
                continue
            if _attr_type(graph, cls, attr, aliases) in _THREADSAFE_TYPES:
                continue
            if attr in declared:
                continue
            labels = ", ".join(root.label for root in hit_roots)
            for touch in touches:
                if not touch.is_write or touch.method_name == "__init__":
                    continue
                if touch.under_lock:
                    continue
                yield info.finding(
                    module.rel_path, touch.lineno,
                    f"attribute '{cls.name}.{attr}' is shared across"
                    f" thread roots ({labels}) but this write in"
                    f" {touch.method_name}() is not under a 'with"
                    f" self.<lock>:' region; guard it, use a"
                    f" thread-safe container (threading.local/Event/"
                    f"Queue), or declare it in {SINGLE_WRITER_DECL}",
                )
