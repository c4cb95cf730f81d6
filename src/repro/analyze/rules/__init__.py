"""Built-in rule modules.

Importing this package registers every built-in rule with the
registry (each module applies the :func:`repro.analyze.registry.rule`
decorator at import time). ``registry._load_builtin_rules`` imports
this package lazily so the registry module itself stays import-cycle
free.
"""

from repro.analyze.rules import determinism as determinism
from repro.analyze.rules import exceptions as exceptions
from repro.analyze.rules import numpyfold as numpyfold

__all__ = ["determinism", "exceptions", "numpyfold"]
