"""Reproduction self-check: DESIGN.md's acceptance criteria as code.

Runs a compact subset of the evaluation (a few minutes of the full
benchmark harness compressed into ~15 seconds) and checks every
"shape" claim the reproduction stands on. Use it after modifying the
simulator to see at a glance whether the paper's qualitative results
still hold:

    python -m repro validate

Each criterion reports PASS/FAIL with the measured value; the run
fails (exit code 1) if any criterion fails.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import SimConfig
from repro.core.characterization import access_fraction_to_top, tmam_breakdown
from repro.core.context import RunRequest
from repro.core.system import compare_systems, run_system
from repro.graph.datasets import load_dataset

__all__ = ["Criterion", "run_validation", "format_validation"]

#: Dataset scale used by the self-check (small enough to run in seconds).
VALIDATE_SCALE = 0.5


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion's outcome."""

    name: str
    passed: bool
    measured: float
    expectation: str

    def render(self) -> str:
        """One status line."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.measured:.3g} ({self.expectation})"


def _criterion(name: str, measured: float, expectation: str,
               check: Callable[[float], bool]) -> Criterion:
    return Criterion(
        name=name,
        passed=bool(check(measured)),
        measured=float(measured),
        expectation=expectation,
    )


def run_validation(scale: float = VALIDATE_SCALE,
                   progress: Optional[Callable[[str], None]] = None) -> List[Criterion]:
    """Execute the acceptance checks; returns one Criterion per claim."""
    say = progress or (lambda msg: None)
    results: List[Criterion] = []

    say("loading datasets")
    lj, _ = load_dataset("lj", scale=scale)
    road, _ = load_dataset("rCA", scale=scale)
    ap, _ = load_dataset("ap", scale=scale)

    say("running power-law comparisons")
    workloads = [
        compare_systems(lj, RunRequest("pagerank", dataset="lj")),
        compare_systems(lj, RunRequest("bfs", dataset="lj")),
        compare_systems(
            ap.as_undirected() if ap.directed else ap,
            RunRequest("cc", dataset="ap"),
        ),
    ]
    speedups = [c.speedup for c in workloads]
    results.append(_criterion(
        "power-law geomean speedup", statistics.geometric_mean(speedups),
        "> 1.5 (paper: ~2x)", lambda v: v > 1.5,
    ))
    pagerank = workloads[0]
    results.append(_criterion(
        "PageRank/lj speedup", pagerank.speedup,
        "> 1.3 (paper: ~2.8x)", lambda v: v > 1.3,
    ))
    results.append(_criterion(
        "on-chip traffic reduction (PageRank/lj)",
        pagerank.traffic_reduction,
        ">= 2 (paper: >3x)", lambda v: v >= 2.0,
    ))
    results.append(_criterion(
        "last-level hit-rate gain (OMEGA minus baseline, PageRank/lj)",
        pagerank.omega.stats.last_level_hit_rate
        - pagerank.baseline.stats.l2_hit_rate,
        "> 0 (paper: 0.44 -> >0.75)", lambda v: v > 0,
    ))
    results.append(_criterion(
        "OMEGA last-level hit rate (PageRank/lj)",
        pagerank.omega.stats.last_level_hit_rate,
        "> 0.65 (paper: >0.75)", lambda v: v > 0.65,
    ))
    results.append(_criterion(
        "energy saving (PageRank/lj)", pagerank.energy_saving,
        "> 1.15 (paper: ~2.5x)", lambda v: v > 1.15,
    ))

    say("checking access concentration")
    from repro.algorithms.pagerank import run_pagerank

    lj_frac = access_fraction_to_top(run_pagerank(lj).trace, lj)
    road_frac = access_fraction_to_top(run_pagerank(road).trace, road)
    results.append(_criterion(
        "vtxProp accesses to top-20% (lj)", lj_frac,
        "> 55% (paper: >75%)", lambda v: v > 55.0,
    ))
    results.append(_criterion(
        "vtxProp accesses to top-20% (road)", road_frac,
        "< 45% (paper: ~20-30%)", lambda v: v < 45.0,
    ))

    say("checking TMAM and ablation")
    base_rep = run_system(
        lj, RunRequest("pagerank"), SimConfig.scaled_baseline()
    )
    results.append(_criterion(
        "baseline memory-bound fraction",
        tmam_breakdown(base_rep)["memory_bound"],
        "> 0.5 (paper: ~0.71)", lambda v: v > 0.5,
    ))
    no_pisc = compare_systems(
        lj, RunRequest("pagerank", dataset="lj"),
        omega_config=SimConfig.scaled_omega(use_pisc=False),
    )
    results.append(_criterion(
        "PISC ablation margin (full minus storage-only speedup)",
        pagerank.speedup - no_pisc.speedup,
        "> 0.2 (paper: >3x vs 1.3x)", lambda v: v > 0.2,
    ))

    say("checking non-power-law control")
    road_cmp = compare_systems(road, RunRequest("pagerank", dataset="rCA"))
    results.append(_criterion(
        "road-vs-power-law ordering (lj minus rCA speedup)",
        pagerank.speedup - road_cmp.speedup,
        "> 0 (paper: Fig 18)", lambda v: v > 0,
    ))
    return results


def format_validation(results: List[Criterion]) -> str:
    """Render the criteria as a status block."""
    lines = [c.render() for c in results]
    failed = sum(1 for c in results if not c.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} criteria passed"
        + ("" if not failed else f" — {failed} FAILED")
    )
    return "\n".join(lines) + "\n"
