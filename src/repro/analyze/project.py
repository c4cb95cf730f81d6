"""Parsed view of the repository the rules analyze.

:class:`ProjectIndex` walks a checkout root, parses every module under
``src/repro`` into an AST exactly once, and exposes lookup helpers the
rules share: module-by-dotted-name and prefix iteration.

Everything is pure reading — the analyzer never imports the code it
checks, so a syntactically valid tree with a broken import graph still
lints.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.analyze.astutil import import_aliases
from repro.errors import ReproError

__all__ = ["SourceModule", "ProjectIndex", "AnalysisError"]


class AnalysisError(ReproError):
    """The analyzer could not read the project (bad root, parse error)."""


class SourceModule:
    """One parsed source file: dotted name, path, text, AST."""

    def __init__(self, name: str, path: Path, rel_path: str,
                 source: str) -> None:
        #: Dotted module name (``repro.memsim.routes``).
        self.name = name
        #: Absolute path on disk.
        self.path = path
        #: Repo-relative posix path (what findings report).
        self.rel_path = rel_path
        #: Full source text.
        self.source = source
        #: Source split into lines (1-based access via ``line()``).
        self.lines = source.splitlines()
        try:
            #: Parsed abstract syntax tree.
            self.tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {rel_path}: {exc}"
            ) from exc
        self._aliases: Optional[Dict[str, str]] = None

    @property
    def aliases(self) -> Dict[str, str]:
        """Import aliases of this module (computed once, shared).

        See :func:`repro.analyze.astutil.import_aliases`; every rule
        and the symbol table read this instead of re-walking the tree.
        """
        if self._aliases is None:
            self._aliases = import_aliases(self.tree)
        return self._aliases

    def line(self, lineno: int) -> str:
        """Source text of 1-based line ``lineno`` ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _module_name(rel: Path) -> str:
    """Dotted module name of a path relative to the ``src`` root."""
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProjectIndex:
    """All parsed modules of one checkout."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root).resolve()
        src = self.root / "src"
        package_root = src / "repro"
        if not package_root.is_dir():
            raise AnalysisError(
                f"no src/repro package under {self.root}; pass the"
                " checkout root (repro lint --root PATH)"
            )
        #: Dotted module name → :class:`SourceModule`.
        self.modules: Dict[str, SourceModule] = {}
        for path in sorted(package_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel_src = path.relative_to(src)
            name = _module_name(rel_src)
            rel = path.relative_to(self.root).as_posix()
            self.modules[name] = SourceModule(
                name, path, rel, path.read_text()
            )

    # -- module lookup -------------------------------------------------
    def get(self, name: str) -> Optional[SourceModule]:
        """Module by dotted name, or ``None`` when absent."""
        return self.modules.get(name)

    def iter_modules(self, *prefixes: str) -> Iterator[SourceModule]:
        """Modules whose dotted name matches any prefix (all, if none).

        A prefix matches the package itself and everything below it
        (``repro.memsim`` matches ``repro.memsim`` and
        ``repro.memsim.routes``).
        """
        for name in sorted(self.modules):
            if not prefixes or any(
                name == p or name.startswith(p + ".") for p in prefixes
            ):
                yield self.modules[name]
