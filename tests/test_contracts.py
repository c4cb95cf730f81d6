"""Runtime contracts: what a run charges and reports, checked by running it.

The paper's conclusions rest on memory-subsystem event counts, so the
invariants below are stated on live runs and live objects rather than
on the source text. One module-scoped grid runs four algorithms through
every registered backend (plus OMEGA without PISCs), in-core and
streamed with attribution, recording every route code a backend emits.

Each contract is a function returning what it finds wrong (empty when
the invariant holds), so the tamper tests of the lint rules these
contracts replaced can feed it a tampered run or object and assert
the defect is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import re
import tokenize
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser
from repro.config import SimConfig
from repro.core.context import RunContext, RunRequest
from repro.core.system import run_backends
from repro.graph.generators import rmat_graph
from repro.memsim import routes
from repro.memsim.backends import BACKENDS, backend_names
from repro.memsim.stats import MemStats
from repro.obs import attribution, manifest_diff, timeline

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TRACE_DOC = (REPO / "docs" / "trace-format.md").read_text()
DOCS = "\n".join(
    page.read_text()
    for page in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
)

#: Modules allowed to touch the process environment: the one place
#: ``REPRO_*`` variables are resolved, plus the process entry points.
ENV_READERS = ("repro.core.context", "repro.cli", "repro.__main__",
               "repro.analyze")

#: Algorithm → graph variant it needs (R-MAT scale 8, seed 21).
ALGORITHMS = {"pagerank": {}, "sssp": {"weighted": True},
              "cc": {"directed": False}, "bfs": {}}
#: Every cell runs in-core and streamed with per-class attribution.
CONTEXTS = {"in-core": RunContext(),
            "streamed": RunContext(segment_events=2000, attribution=True)}


def counters_of(cls: type = MemStats) -> typing.List[str]:
    """Scalar counters of a stats class (``num_cores`` is a size)."""
    return [
        name for name, kind in typing.get_type_hints(cls).items()
        if kind is int and name != "num_cores"
    ]


def declared_routes() -> typing.Dict[str, int]:
    """Every ``ROUTE_*`` code a backend may emit."""
    return {
        name: int(code) for name, code in vars(routes).items()
        if name.startswith("ROUTE_")
    }


def grid_graph(algorithm: str):
    return rmat_graph(8, edge_factor=8, seed=21, **ALGORITHMS[algorithm])


def run(graph, algorithm, backend, configs=None, context=RunContext()):
    (report,) = run_backends(
        graph, RunRequest(algorithm=algorithm), (backend,),
        configs=configs, context=context,
    ).values()
    return report


@contextlib.contextmanager
def recording_routes() -> typing.Iterator[typing.Set[int]]:
    """Collect every route code the registered backends emit meanwhile."""
    codes: typing.Set[int] = set()
    with pytest.MonkeyPatch.context() as mp:
        for cls in BACKENDS.values():
            def recording(self, *args, _route=cls.route):
                emitted = _route(self, *args)
                codes.update(np.unique(emitted).tolist())
                return emitted
            mp.setattr(cls, "route", recording)
        yield codes


@pytest.fixture(scope="module")
def grid():
    """Every cell's report by label, and every route code emitted."""
    no_pisc = SimConfig.scaled_omega(num_cores=4, use_pisc=False)
    cells = [(name, name, None) for name in backend_names()]
    cells.append(("omega-nopisc", "omega", {"omega": no_pisc}))
    reports = {}
    with recording_routes() as codes:
        for algorithm in ALGORITHMS:
            graph = grid_graph(algorithm)
            for where, context in CONTEXTS.items():
                for label, name, configs in cells:
                    reports[f"{algorithm}/{label}/{where}"] = run(
                        graph, algorithm, name, configs, context
                    )
    return reports, codes


# -- routes --------------------------------------------------------------
def route_drift(codes) -> typing.List[str]:
    """Declared routes nothing emitted, and emitted codes nothing declares."""
    declared = declared_routes()
    assert len(set(declared.values())) == len(declared), \
        "two routes share a code"
    return sorted(
        [f"dead {name}" for name, code in declared.items()
         if code not in codes]
        + [f"undeclared code {code}" for code in set(codes)
           - set(declared.values())]
    )


def uncharged(report) -> int:
    """Trace events minus events charged (0 when each is charged once)."""
    s = report.stats
    charged = (
        s.l1_hits + s.l1_misses + s.sp_local_accesses
        + s.sp_remote_accesses + s.srcbuf_hits
        + (s.l2_hits + s.l2_misses - s.l1_misses)   # locked lines
        + (s.atomics_offloaded - s.pisc_ops)        # off-chip PIM
    )
    return report.trace_events - charged


def test_every_route_code_is_emitted_and_declared(grid):
    _, codes = grid
    assert route_drift(codes) == []


def test_every_event_is_charged_exactly_once(grid):
    reports, _ = grid
    for label, report in reports.items():
        assert uncharged(report) == 0, label


# -- counters ------------------------------------------------------------
def silent_counters(stats) -> typing.List[str]:
    """Counters whose value does not move ``as_dict()``."""
    base = stats.as_dict()
    return [
        name for name in counters_of(type(stats))
        if dataclasses.replace(
            stats, **{name: getattr(stats, name) + 1}
        ).as_dict() == base
    ]


def unwritten_counters(all_stats) -> typing.List[str]:
    """Counters zero in every one of ``all_stats``."""
    all_stats = list(all_stats)
    return [
        name for name in counters_of(type(all_stats[0]))
        if not any(getattr(s, name) for s in all_stats)
    ]


def ghost_fields() -> typing.List[str]:
    """Timeline snapshot or attribution fields that are not counters."""
    fields = timeline._STAT_FIELDS + attribution.ATTRIBUTED_FIELDS
    return sorted(set(fields) - set(counters_of()))


def test_every_counter_is_reported(grid):
    reports, _ = grid
    stats = reports["pagerank/omega/in-core"].stats
    assert silent_counters(stats) == [], \
        "counters missing from MemStats.as_dict"


def test_every_counter_is_written(grid):
    reports, _ = grid
    assert unwritten_counters(r.stats for r in reports.values()) == [], \
        "counters no grid cell ever writes"


# -- timing bounds -------------------------------------------------------
def bound_drift(report) -> typing.List[str]:
    """Bandwidth bounds that differ from the stats-derived limits."""
    config, stats = report.config, report.stats
    links = config.interconnect.bus_bytes * config.core.num_cores
    want = {
        "dram_bandwidth": stats.dram_bytes / config.dram.total_bytes_per_cycle,
        "crossbar": stats.onchip_traffic_bytes / links,
    }
    got = report.timing.bounds
    return [f"{name}: {got[name]!r} != {value!r}"
            for name, value in want.items() if got[name] != value]


def test_bandwidth_bounds_derive_from_stats(grid):
    reports, _ = grid
    for label, report in reports.items():
        assert bound_drift(report) == [], label


def test_snapshot_and_attribution_fields_are_counters():
    assert ghost_fields() == []


# -- manifest blocks -----------------------------------------------------
def block_drift(blocks, page: str = TRACE_DOC) -> typing.List[str]:
    """Blocks ``KNOWN_BLOCKS`` misses or no run writes, or ``page`` omits."""
    blocks, known = set(blocks), manifest_diff.KNOWN_BLOCKS
    return sorted(
        [f"ungated {b}" for b in blocks - known]
        + [f"stale {b}" for b in known - blocks]
        + [f"undocumented {b}" for b in blocks if f'"{b}"' not in page]
    )


def test_manifest_blocks_are_gated_and_documented(grid):
    reports, _ = grid
    blocks = set().union(*(r.manifest() for r in reports.values()))
    assert block_drift(blocks) == []


# -- environment reads ---------------------------------------------------
def env_offenders(src: Path = SRC) -> typing.List[str]:
    """``environ``/``getenv`` names outside the allowed modules."""
    offenders = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if any(module == m or module.startswith(m + ".")
               for m in ENV_READERS):
            continue
        with path.open("rb") as fh:
            offenders += [
                f"{path.relative_to(src).as_posix()}:{tok.start[0]}"
                for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.NAME
                and tok.string in ("environ", "getenv")
            ]
    return offenders


def test_environment_is_read_only_at_the_context_boundary():
    assert env_offenders() == [], "resolve it through RunContext.from_env"


# -- docs ----------------------------------------------------------------
def _long_flags(parser: argparse.ArgumentParser) -> typing.Set[str]:
    flags: typing.Set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags |= {s for s in action.option_strings if s.startswith("--")}
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _long_flags(sub)
    return flags


def undocumented_flags(parser, docs: str = DOCS) -> typing.List[str]:
    flags = _long_flags(parser)
    assert flags, "the parser walk found no flags"
    return sorted(f for f in flags if f not in docs)


def undocumented_env_vars(src: Path = SRC,
                          docs: str = DOCS) -> typing.List[str]:
    names: typing.Set[str] = set()
    for path in (src / "repro").rglob("*.py"):
        names |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert names, "the source scan found no REPRO_* variables"
    return sorted(n for n in names if n not in docs)


def test_every_cli_flag_is_documented():
    assert undocumented_flags(build_parser()) == []


def test_every_env_var_is_documented():
    assert undocumented_env_vars() == []
