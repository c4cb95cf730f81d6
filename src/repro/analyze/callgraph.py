"""Project-wide call graph with thread-root modeling.

Built once per :class:`~repro.analyze.project.ProjectIndex` (cached on
the index as ``project.call_graph()``) and shared by the
whole-program rules. Three layers:

**Symbol table** — every function, method and class in the project,
keyed by a qualified name (``repro.serve.jobs:JobManager.submit``),
with per-class base lists and the ``self.attr = ...`` initializer
expressions the receiver-type resolution feeds on.

**Edges** — def/use resolution across modules, deliberately
conservative (a linter must not invent reachability):

- plain ``Name`` calls resolve through import aliases to project
  functions and constructors;
- ``self.m()`` resolves through the receiver's class, then its
  project bases, then its project subclasses (virtual dispatch);
- ``super().m()`` resolves to the first project base defining ``m``;
- ``x.m()`` where ``x``'s reaching definition (or parameter
  annotation) names a project class resolves to that class and its
  subclasses; ``x = get_backend(...)`` resolves to every
  ``@register_backend`` class — the pluggable backend surface;
- ``self.attr.m()`` resolves through the class's recorded
  ``self.attr = ...`` initializer;
- anything still unresolved falls back to *unique-name CHA*: the edge
  is added only when exactly one project class defines a method of
  that name, so common names (``.get``, ``.items``, ``.pop``) never
  produce edges.

**Thread roots** — where concurrent execution enters the project:

- the ambient root (the main thread): every public or dunder
  function/method, closed over the edges;
- one root per ``threading.Thread(target=...)`` spawn site;
- one *many-thread* root per ``ThreadPoolExecutor``-``submit`` site
  (``ProcessPoolExecutor`` pools are excluded — processes share no
  memory, so they are not racing anybody);
- one many-thread root per ``do_*`` method of a
  ``BaseHTTPRequestHandler`` subclass (``ThreadingHTTPServer`` runs
  each request on its own thread).
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analyze.astutil import resolve_call_target
from repro.analyze.dataflow import FunctionFlow, walk_function_body

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analyze.project import ProjectIndex

__all__ = ["CallGraph", "ClassRef", "FuncRef", "SpawnSite", "ThreadRoot"]

#: Dotted targets that spawn one extra thread per call site.
_THREAD_TYPES = ("threading.Thread", "threading.Timer")

#: Dotted executor types whose ``submit`` fans work across threads.
_THREAD_POOL_TYPES = (
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
)

#: Executor types that do NOT share memory (never thread roots).
_PROCESS_POOL_TYPES = (
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
)

#: Base classes whose ``do_*`` methods run on per-request threads.
_HANDLER_BASES = ("http.server.BaseHTTPRequestHandler",)


class FuncRef:
    """One function or method definition in the project."""

    def __init__(self, qual: str, module: str, name: str,
                 node: ast.AST, cls: Optional[str]) -> None:
        #: Qualified name: ``module:Class.method`` / ``module:func``.
        self.qual = qual
        #: Dotted module name the definition lives in.
        self.module = module
        #: Bare function/method name.
        self.name = name
        #: The ``ast.FunctionDef`` / ``ast.AsyncFunctionDef`` node.
        self.node = node
        #: Qualified class key (``module:Class``) for methods.
        self.cls = cls
        #: Lazily built dataflow view of the body.
        self._flow: Optional[FunctionFlow] = None

    @property
    def flow(self) -> FunctionFlow:
        """Reaching-definitions view of this function's body."""
        if self._flow is None:
            self._flow = FunctionFlow(self.node)
        return self._flow


class ClassRef:
    """One class definition: bases, methods, attribute initializers."""

    def __init__(self, qual: str, module: str, name: str,
                 node: ast.ClassDef, bases: List[str]) -> None:
        #: Qualified class key (``module:Class``).
        self.qual = qual
        self.module = module
        self.name = name
        self.node = node
        #: Base names, import-alias resolved to dotted paths.
        self.bases = bases
        #: Method name → :class:`FuncRef`.
        self.methods: Dict[str, FuncRef] = {}
        #: Attribute name → list of ``self.attr = <expr>`` initializer
        #: expressions found anywhere in the class's methods.
        self.attr_inits: Dict[str, List[ast.expr]] = {}
        #: Whether the class carries a ``@register_backend`` decorator.
        self.registered_backend = False


class SpawnSite:
    """One thread-creation site and the target it resolves to."""

    def __init__(self, kind: str, module: str, lineno: int,
                 target: Optional[str]) -> None:
        #: ``"thread"`` (one extra thread) or ``"pool"`` (many).
        self.kind = kind
        self.module = module
        self.lineno = lineno
        #: Qualified name of the spawned function, if resolvable.
        self.target = target


class ThreadRoot:
    """One source of concurrent execution over the project."""

    def __init__(self, label: str, entries: Set[str], many: bool) -> None:
        #: Human-readable root label (shows up in findings).
        self.label = label
        #: Qualified names execution enters the project through.
        self.entries = entries
        #: Whether the root itself runs on more than one thread
        #: (worker pools, per-request handler threads).
        self.many = many


class CallGraph:
    """Symbol table + resolved call edges + thread roots."""

    def __init__(self, project: "ProjectIndex") -> None:
        self.functions: Dict[str, FuncRef] = {}
        self.classes: Dict[str, ClassRef] = {}
        #: Simple class name → every project class with that name.
        self._classes_by_name: Dict[str, List[ClassRef]] = {}
        #: Method name → classes defining it (unique-name CHA table).
        self._method_owners: Dict[str, List[ClassRef]] = {}
        #: Caller qualified name → callee qualified names.
        self.edges: Dict[str, Set[str]] = {}
        self.spawns: List[SpawnSite] = []
        #: ``do_*`` methods of request-handler subclasses.
        self.handler_methods: List[str] = []
        self._modules = project.modules
        self._children: Optional[Dict[str, List[ClassRef]]] = None
        self._reach_cache: Dict["frozenset[str]", Set[str]] = {}
        self._collect(project)
        self._resolve_edges()

    # -- symbol table --------------------------------------------------
    def _collect(self, project: "ProjectIndex") -> None:
        for module in project.iter_modules():
            self._collect_scope(module.name, module.tree.body, prefix="",
                                cls=None)
        for cls in self.classes.values():
            self._classes_by_name.setdefault(cls.name, []).append(cls)
            for mname in cls.methods:
                self._method_owners.setdefault(mname, []).append(cls)

    def _collect_scope(self, module: str, body: Sequence[ast.stmt],
                       prefix: str, cls: Optional[ClassRef]) -> None:
        # walk compound statements too (a def inside `if`/`try` is
        # still a definition of this scope), without entering nested
        # function/class bodies — those recurse with their own prefix.
        stmts: List[ast.stmt] = list(body)
        while stmts:
            node = stmts.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = f"{prefix}{node.name}"
                qual = f"{module}:{local}"
                ref = FuncRef(qual, module, node.name, node,
                              cls.qual if cls else None)
                self.functions[qual] = ref
                if cls is not None:
                    cls.methods[node.name] = ref
                    self._record_attr_inits(cls, node)
                # nested defs are their own units; a "defines" edge
                # keeps them reachable whenever the definer is.
                self._collect_scope(module, node.body,
                                    prefix=f"{local}.", cls=None)
                outer = f"{module}:{prefix[:-1]}" if prefix else ""
                if outer in self.functions:
                    self.edges.setdefault(outer, set()).add(qual)
            elif isinstance(node, ast.ClassDef):
                qual = f"{module}:{prefix}{node.name}"
                aliases = self._modules[module].aliases
                bases = []
                for base in node.bases:
                    dotted = resolve_call_target(base, aliases)
                    if dotted:
                        bases.append(dotted)
                ref = ClassRef(qual, module, node.name, node, bases)
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    dotted = resolve_call_target(target, aliases)
                    if dotted and dotted.split(".")[-1] == "register_backend":
                        ref.registered_backend = True
                self.classes[qual] = ref
                self._collect_scope(module, node.body,
                                    prefix=f"{prefix}{node.name}.", cls=ref)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    for sub in getattr(node, field, []) or []:
                        if isinstance(sub, ast.ExceptHandler):
                            stmts.extend(sub.body)
                        elif isinstance(sub, ast.stmt):
                            stmts.append(sub)

    def _record_attr_inits(self, cls: ClassRef, method: ast.AST) -> None:
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
                    cls.attr_inits.setdefault(target.attr, []).append(
                        value
                    )

    # -- class lookups -------------------------------------------------
    def class_by_dotted(self, dotted: str) -> Optional[ClassRef]:
        """Project class for a dotted path (``repro.x.y.Cls``) or a
        bare name that is unique project-wide."""
        if "." in dotted:
            module, _, name = dotted.rpartition(".")
            ref = self.classes.get(f"{module}:{name}")
            if ref is not None:
                return ref
        candidates = self._classes_by_name.get(dotted.split(".")[-1], [])
        if len(candidates) == 1 and "." not in dotted:
            return candidates[0]
        return None

    def subclasses(self, cls: ClassRef) -> List[ClassRef]:
        """Transitive project subclasses of ``cls``."""
        if self._children is None:
            self._children = {}
            for cand in self.classes.values():
                for base in cand.bases:
                    resolved = self.class_by_dotted(base)
                    if resolved is not None:
                        self._children.setdefault(
                            resolved.qual, []
                        ).append(cand)
        out: List[ClassRef] = []
        todo = [cls]
        while todo:
            cur = todo.pop()
            for child in self._children.get(cur.qual, []):
                if child not in out and child is not cls:
                    out.append(child)
                    todo.append(child)
        return out

    def mro_method(self, cls: ClassRef, name: str) -> Optional[FuncRef]:
        """``cls``'s method ``name``, searching project bases upward."""
        seen: Set[str] = set()
        todo = [cls]
        while todo:
            cur = todo.pop(0)
            if cur.qual in seen:
                continue
            seen.add(cur.qual)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                resolved = self.class_by_dotted(base)
                if resolved is not None:
                    todo.append(resolved)
        return None

    def inherits_from(self, cls: ClassRef, dotted_bases: Tuple[str, ...],
                      ) -> bool:
        """Whether ``cls`` transitively inherits any of the dotted
        (non-project) base paths."""
        seen: Set[str] = set()
        todo = [cls]
        while todo:
            cur = todo.pop()
            if cur.qual in seen:
                continue
            seen.add(cur.qual)
            for base in cur.bases:
                if base in dotted_bases:
                    return True
                resolved = self.class_by_dotted(base)
                if resolved is not None:
                    todo.append(resolved)
        return False

    def registered_backends(self) -> List[ClassRef]:
        """Every ``@register_backend``-decorated class."""
        return [c for c in self.classes.values() if c.registered_backend]

    def classes_in(self, prefixes: Tuple[str, ...]) -> Iterator[ClassRef]:
        """Classes whose module matches any dotted prefix."""
        for qual in sorted(self.classes):
            cls = self.classes[qual]
            if any(
                cls.module == p or cls.module.startswith(p + ".")
                for p in prefixes
            ):
                yield cls

    # -- edge resolution -----------------------------------------------
    def _resolve_edges(self) -> None:
        for qual in sorted(self.functions):
            self._resolve_function(self.functions[qual])

    def _resolve_function(self, ref: FuncRef) -> None:
        aliases = self._modules[ref.module].aliases
        out = self.edges.setdefault(ref.qual, set())
        cls = self.classes.get(ref.cls) if ref.cls else None
        for node in walk_function_body(ref.node):
            if not isinstance(node, ast.Call):
                continue
            self._detect_spawn(ref, node, aliases, out)
            for callee in self._resolve_call(ref, cls, node, aliases):
                out.add(callee.qual)

    def _resolve_call(self, ref: FuncRef, cls: Optional[ClassRef],
                      call: ast.Call,
                      aliases: Dict[str, str]) -> List[FuncRef]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(ref, func.id, aliases)
        if not isinstance(func, ast.Attribute):
            return []
        receiver = func.value
        method = func.attr
        # super().m() → first project base defining m
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and cls is not None
        ):
            for base in cls.bases:
                base_cls = self.class_by_dotted(base)
                if base_cls is not None:
                    found = self.mro_method(base_cls, method)
                    if found is not None:
                        return [found]
            return []
        # self.m() → own class, bases, subclasses
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if cls is not None:
                found = self.mro_method(cls, method)
                targets = [found] if found else []
                for sub in self.subclasses(cls):
                    if method in sub.methods:
                        targets.append(sub.methods[method])
                if targets:
                    return targets
                # self.<attr>() where <attr> is a stored callable —
                # opaque; do not guess via CHA.
                if method in cls.attr_inits:
                    return []
            return self._cha(method)
        # module.func() through import aliases
        dotted = resolve_call_target(func, aliases)
        if dotted is not None:
            target = self._project_function(dotted)
            if target is not None:
                return [target]
        # x.m() / self.attr.m() → type the receiver, then dispatch
        receiver_classes = self._receiver_classes(ref, cls, receiver, aliases)
        if receiver_classes is not None:
            targets = []
            for rcls in receiver_classes:
                found = self.mro_method(rcls, method)
                if found is not None:
                    targets.append(found)
            return targets
        if isinstance(receiver, ast.Name) and receiver.id not in aliases:
            return self._cha(method)
        return []

    def _resolve_name_call(self, ref: FuncRef, name: str,
                           aliases: Dict[str, str]) -> List[FuncRef]:
        # a sibling definition in the same module wins
        local = self.functions.get(f"{ref.module}:{name}")
        if local is not None:
            return [local]
        local_cls = self.classes.get(f"{ref.module}:{name}")
        dotted = aliases.get(name)
        if local_cls is None and dotted is not None:
            local_cls = self.class_by_dotted(dotted)
        if local_cls is not None:
            init = self.mro_method(local_cls, "__init__")
            return [init] if init else []
        if dotted is not None:
            target = self._project_function(dotted)
            if target is not None:
                return [target]
        return []

    def _project_function(self, dotted: str) -> Optional[FuncRef]:
        module, _, name = dotted.rpartition(".")
        if not module:
            return None
        return self.functions.get(f"{module}:{name}")

    def _cha(self, method: str) -> List[FuncRef]:
        """Unique-name class-hierarchy fallback: resolve only when
        exactly one project class defines the method name."""
        owners = self._method_owners.get(method, [])
        if len(owners) == 1:
            return [owners[0].methods[method]]
        return []

    def _receiver_classes(self, ref: FuncRef, cls: Optional[ClassRef],
                          receiver: ast.expr, aliases: Dict[str, str],
                          ) -> Optional[List[ClassRef]]:
        """Project classes a method receiver may be an instance of.

        ``None`` means "no idea" (caller may fall back to CHA); an
        empty list means "typed, but not a project class" (caller must
        NOT guess)."""
        if isinstance(receiver, ast.Name):
            flow = ref.flow
            value = flow.reaching(receiver.id, receiver.lineno)
            if value is not None:
                found = self._value_classes(value, ref, aliases)
                if found:
                    return found
                if isinstance(value, ast.Call):
                    return []  # constructed, but not a project class
                return None  # opaque expression — CHA may still guess
            ann = flow.param_annotation(receiver.id)
            if ann is not None:
                found = self._annotation_classes(ann, aliases)
                return found if found else []
            if flow.is_local(receiver.id):
                return []  # bound, but to something opaque
            return None
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and cls is not None
        ):
            inits = cls.attr_inits.get(receiver.attr)
            if not inits:
                return []
            out: List[ClassRef] = []
            for init in inits:
                found = self._value_classes(init, ref, aliases)
                if found:
                    out.extend(found)
            return out
        return []

    def _value_classes(self, value: ast.expr, ref: FuncRef,
                       aliases: Dict[str, str]) -> List[ClassRef]:
        """Project classes the value of an expression instantiates."""
        if isinstance(value, ast.Call):
            dotted = resolve_call_target(value.func, aliases)
            if dotted is None:
                return []
            if dotted.split(".")[-1] == "get_backend":
                return self.registered_backends()
            direct = self.class_by_dotted(dotted)
            if direct is not None:
                return [direct] + self.subclasses(direct)
            factory = self._project_function(dotted)
            if factory is not None:
                returns = getattr(factory.node, "returns", None)
                if returns is not None:
                    return self._annotation_classes(
                        returns, self._modules[factory.module].aliases
                    )
            return []
        if isinstance(value, ast.Name):
            dotted = aliases.get(value.id, value.id)
            direct = self.class_by_dotted(dotted)
            if direct is not None:
                return [direct] + self.subclasses(direct)
        return []

    def _annotation_classes(self, ann: ast.expr,
                            aliases: Dict[str, str]) -> List[ClassRef]:
        """Project classes named by a parameter/return annotation."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return []
        if isinstance(ann, ast.Subscript):
            # Optional[X] / "Optional[X]" — look through the wrapper
            return self._annotation_classes(ann.slice, aliases)
        dotted = resolve_call_target(ann, aliases)
        if dotted is None:
            return []
        direct = self.class_by_dotted(dotted)
        if direct is not None:
            return [direct] + self.subclasses(direct)
        return []

    # -- thread roots --------------------------------------------------
    def _detect_spawn(self, ref: FuncRef, call: ast.Call,
                      aliases: Dict[str, str], out: Set[str]) -> None:
        dotted = resolve_call_target(call.func, aliases)
        if dotted in _THREAD_TYPES:
            target = None
            for kw in call.keywords:
                if kw.arg == "target":
                    target = self._spawn_target(ref, kw.value, aliases)
            self.spawns.append(
                SpawnSite("thread", ref.module, call.lineno, target)
            )
            if target:
                out.add(target)
            return
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            cls = self.classes.get(ref.cls) if ref.cls else None
            pool_type = self._executor_type(ref, cls, func.value, aliases)
            if pool_type in _PROCESS_POOL_TYPES:
                return  # separate address spaces — not a thread root
            if pool_type in _THREAD_POOL_TYPES and call.args:
                target = self._spawn_target(ref, call.args[0], aliases)
                self.spawns.append(
                    SpawnSite("pool", ref.module, call.lineno, target)
                )
                if target:
                    out.add(target)

    def _executor_type(self, ref: FuncRef, cls: Optional[ClassRef],
                       receiver: ast.expr,
                       aliases: Dict[str, str]) -> Optional[str]:
        """The dotted constructor type of an executor receiver."""
        value: Optional[ast.expr] = None
        if isinstance(receiver, ast.Name):
            value = ref.flow.reaching(receiver.id, receiver.lineno)
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and cls is not None
        ):
            inits = cls.attr_inits.get(receiver.attr) or []
            value = inits[0] if inits else None
        if isinstance(value, ast.Call):
            return resolve_call_target(value.func, aliases)
        return None

    def _spawn_target(self, ref: FuncRef, expr: ast.expr,
                      aliases: Dict[str, str]) -> Optional[str]:
        """Qualified name of a spawn target expression, if resolvable."""
        if isinstance(expr, ast.Name):
            local = self.functions.get(f"{ref.module}:{expr.id}")
            if local is not None:
                return local.qual
            dotted = aliases.get(expr.id)
            if dotted is not None:
                target = self._project_function(dotted)
                if target is not None:
                    return target.qual
            return None
        if isinstance(expr, ast.Attribute):
            method = expr.attr
            cls = self.classes.get(ref.cls) if ref.cls else None
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and cls is not None
            ):
                found = self.mro_method(cls, method)
                return found.qual if found else None
            receiver_classes = self._receiver_classes(
                ref, cls, expr.value, aliases
            )
            if receiver_classes:
                found = self.mro_method(receiver_classes[0], method)
                return found.qual if found else None
        return None

    def thread_roots(self) -> List[ThreadRoot]:
        """Every source of concurrent execution, ambient root first."""
        ambient = {
            qual for qual, ref in self.functions.items()
            if not ref.name.startswith("_")
            or (ref.name.startswith("__") and ref.name.endswith("__"))
        }
        roots = [ThreadRoot("the main thread", ambient, many=False)]
        seen: Set[Tuple[str, str]] = set()
        for spawn in self.spawns:
            if spawn.target is None:
                continue
            key = (spawn.kind, spawn.target)
            if key in seen:
                continue
            seen.add(key)
            noun = "worker pool" if spawn.kind == "pool" else "a thread"
            roots.append(ThreadRoot(
                f"{noun} via {spawn.target}", {spawn.target},
                many=spawn.kind == "pool",
            ))
        for qual in self._find_handler_methods():
            roots.append(ThreadRoot(
                f"request-handler threads via {qual}", {qual}, many=True,
            ))
        return roots

    def _find_handler_methods(self) -> List[str]:
        if not self.handler_methods:
            for qual in sorted(self.classes):
                cls = self.classes[qual]
                if not self.inherits_from(cls, _HANDLER_BASES):
                    continue
                for name, method in sorted(cls.methods.items()):
                    if name.startswith("do_"):
                        self.handler_methods.append(method.qual)
        return self.handler_methods

    def reachable(self, entries: Set[str]) -> Set[str]:
        """Qualified names reachable from ``entries`` over the edges."""
        key = frozenset(entries)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        todo = [q for q in entries if q in self.functions]
        while todo:
            cur = todo.pop()
            if cur in seen:
                continue
            seen.add(cur)
            todo.extend(self.edges.get(cur, ()))
        self._reach_cache[key] = seen
        return seen
