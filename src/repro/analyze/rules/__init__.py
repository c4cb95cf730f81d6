"""Built-in rule modules.

Importing this package registers every built-in rule with the
registry (each module applies the :func:`repro.analyze.registry.rule`
decorator at import time). ``registry._load_builtin_rules`` imports
this package lazily so the registry module itself stays import-cycle
free.
"""

from repro.analyze.rules import counters as counters
from repro.analyze.rules import determinism as determinism
from repro.analyze.rules import docsync as docsync
from repro.analyze.rules import envreads as envreads
from repro.analyze.rules import exceptions as exceptions
from repro.analyze.rules import manifest_schema as manifest_schema
from repro.analyze.rules import numpyfold as numpyfold
from repro.analyze.rules import race as race
from repro.analyze.rules import routing as routing

__all__ = [
    "counters", "determinism", "docsync", "envreads", "exceptions",
    "manifest_schema", "numpyfold", "race", "routing",
]
