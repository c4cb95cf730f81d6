"""Route accounting, formerly lint rule RTE001, as tamper tests.

The rule is now the route contracts of ``tests/test_contracts.py``: the
census of emitted codes against ``repro.memsim.routes`` and the
charged-exactly-once identity. Each test runs a live backend, tampered
or not, and asserts what those contracts report.
"""

from repro.memsim import routes
from repro.memsim.backends import BACKENDS, OmegaBackend
from repro.memsim.backends.base import HierarchyBackend
from repro.memsim.routes import ROUTE_SP_PLAIN, ROUTE_SRCBUF_HIT

from tests.test_contracts import (
    grid_graph,
    recording_routes,
    route_drift,
    run,
    uncharged,
)


def test_bad_fixture_flags_dangling_and_dead_routes(monkeypatch):
    # Omega emits a code nothing declares or charges, and routes.py
    # declares a code no backend emits.
    route = OmegaBackend.route

    def emits_code_7(self, *args):
        emitted = route(self, *args)
        emitted[emitted == ROUTE_SP_PLAIN] = 7
        return emitted

    monkeypatch.setattr(OmegaBackend, "route", emits_code_7)
    monkeypatch.setattr(routes, "ROUTE_GHOST", 99, raising=False)
    with recording_routes() as codes:
        report = run(grid_graph("pagerank"), "pagerank", "omega")
    drift = route_drift(codes)
    assert "undeclared code 7" in drift
    assert "dead ROUTE_GHOST" in drift
    assert uncharged(report) > 0


def test_accounted_emission_is_clean():
    # Omega charges its source-buffer hits in its own account().
    assert "account" in vars(OmegaBackend)
    with recording_routes() as codes:
        report = run(grid_graph("sssp"), "sssp", "omega")
    assert ROUTE_SRCBUF_HIT in codes
    assert not [d for d in route_drift(codes) if d.startswith("undeclared")]
    assert uncharged(report) == 0


def test_base_accounting_covers_all_backends(monkeypatch):
    inherited = [name for name, cls in BACKENDS.items()
                 if "account" not in vars(cls)]
    assert inherited, "every backend overrides account()"
    for name in inherited:
        with recording_routes() as codes:
            report = run(grid_graph("pagerank"), "pagerank", name)
        assert uncharged(report) == 0, name
        assert not [d for d in route_drift(codes)
                    if d.startswith("undeclared")], name
    # Without the base accounting, the scratchpad events of a backend
    # that inherits it go uncharged.
    monkeypatch.setattr(HierarchyBackend, "account", lambda *args: None)
    report = run(grid_graph("pagerank"), "pagerank", "dynamic")
    assert uncharged(report) > 0
