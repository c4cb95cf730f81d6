"""Every module under ``memsim/backends/`` is a well-formed backend plug.

Each plug defines a :class:`HierarchyBackend` subclass, registers it
under a name no other plug takes, re-exports it from the package hub,
overrides only hooks that exist (with the base's parameter names), and
chains ``__init__`` to the base. A typo'd ``acount`` would otherwise
fall back to the base hook and drop that backend's accounting.
"""

import difflib
import importlib
import inspect
import pkgutil

import repro.memsim.backends as hub
from repro.core.context import RunRequest
from repro.core.system import run_backends
from repro.graph.generators import rmat_graph
from repro.memsim.backends import BACKENDS, HierarchyBackend, backend_names

#: Package modules that hold the protocol and registry, not a plug.
_INFRA = ("base", "registry")


def _positional(fn):
    """Names of ``fn``'s positional-or-keyword parameters."""
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


#: Hook name → positional parameter names on the protocol.
_HOOKS = {
    name: _positional(fn)
    for name, fn in vars(HierarchyBackend).items()
    if inspect.isfunction(fn)
}


def _plugs():
    """(module name, backend classes it defines) for every plug."""
    for info in pkgutil.iter_modules(hub.__path__):
        if info.name in _INFRA:
            continue
        module = importlib.import_module(f"{hub.__name__}.{info.name}")
        yield module.__name__, [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, HierarchyBackend)
            and cls.__module__ == module.__name__
        ]


def _backends():
    """Every backend class the plugs define."""
    return [cls for _, classes in _plugs() for cls in classes]


def test_every_plug_module_defines_a_backend():
    for module, classes in _plugs():
        assert classes, f"{module} defines no HierarchyBackend subclass"


def test_every_plug_backend_is_registered():
    for cls in _backends():
        assert BACKENDS.get(cls.name) is cls, (
            f"{cls.__name__} is not registered under its name {cls.name!r}"
        )
    assert sorted(c.__name__ for c in _backends()) == sorted(
        c.__name__ for c in BACKENDS.values()
    )


def test_backend_names_are_unique():
    names = [cls.name for cls in _backends()]
    dupes = sorted({n for n in names if names.count(n) > 1})
    assert not dupes, f"backend names registered twice: {dupes}"


def test_every_plug_backend_is_exported_from_the_hub():
    for cls in _backends():
        assert cls.__name__ in hub.__all__, cls.__name__
        assert getattr(hub, cls.__name__) is cls, cls.__name__


def test_overrides_match_the_protocol_surface():
    for _, classes in _plugs():
        for cls in classes:
            for name, fn in vars(cls).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                where = f"{cls.__name__}.{name}"
                if name in _HOOKS:
                    assert _positional(fn) == _HOOKS[name], where
                else:
                    near = difflib.get_close_matches(
                        name, sorted(_HOOKS), n=1, cutoff=0.75
                    )
                    assert not near, f"{where}: did you mean {near[0]!r}?"


def test_every_backend_chains_init_to_the_base(monkeypatch):
    initialized = []
    base_init = HierarchyBackend.__init__

    def spy(self, config):
        initialized.append(type(self))
        base_init(self, config)

    monkeypatch.setattr(HierarchyBackend, "__init__", spy)
    run_backends(
        rmat_graph(6, edge_factor=4, seed=3),
        RunRequest("pagerank", num_cores=4), backend_names(),
    )
    assert sorted(c.__name__ for c in initialized) == sorted(
        c.__name__ for c in BACKENDS.values()
    )
