"""Sliced execution for graphs whose hot set overflows the scratchpads.

Section VII sketches two scaling strategies beyond "just store what
fits" (which the paper evaluates): plain slicing, where each slice's
*entire* vtxProp must fit on chip, and power-law-aware slicing, where
only each slice's top ~20% must — cutting the number of passes by
~1/hot_fraction (5x). The paper defers their evaluation to future
work; this module implements both so the trade-off can be measured.

A sliced run processes one destination-range slice at a time: each
slice is popularity-reordered, simulated independently (its hot set
now fits), and charged a per-slice merge pass that writes the slice's
owned vtxProp range back to memory. Total cycles are the sum across
slices plus the merge overhead — the two costs the paper names
("processing time required for partitioning" is preprocessing, like
reordering, and excluded on both sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.graph.degree import TOP_VERTEX_FRACTION
from repro.graph.slicing import GraphSlice, slice_graph, slice_graph_power_law
from repro.core.context import RunRequest
from repro.core.report import SimReport
from repro.core.system import run_system
from repro.memsim.scratchpad import hot_capacity_for

__all__ = ["SlicedRunReport", "run_sliced", "slice_plan"]


@dataclass
class SlicedRunReport:
    """Outcome of one sliced execution."""

    algorithm: str
    dataset: str
    power_law_aware: bool
    num_slices: int
    slice_reports: List[SimReport]
    merge_cycles: float

    @property
    def compute_cycles(self) -> float:
        """Cycles spent inside slice simulations."""
        return sum(r.cycles for r in self.slice_reports)

    @property
    def total_cycles(self) -> float:
        """Slice simulations plus inter-slice merge passes."""
        return self.compute_cycles + self.merge_cycles

    @property
    def overhead_fraction(self) -> float:
        """Merge overhead as a share of total cycles."""
        return self.merge_cycles / self.total_cycles if self.total_cycles else 0.0


def slice_plan(
    graph: CSRGraph,
    config: SimConfig,
    bytes_per_vertex: int,
    power_law_aware: bool,
    hot_fraction: float = TOP_VERTEX_FRACTION,
) -> List[GraphSlice]:
    """Slice ``graph`` so each slice's (hot) vtxProp fits the pads."""
    capacity = hot_capacity_for(
        config.scratchpad_total_bytes, bytes_per_vertex, graph.num_vertices
    )
    if capacity <= 0:
        raise SimulationError("configuration has no scratchpad capacity")
    if power_law_aware:
        return slice_graph_power_law(graph, capacity, hot_fraction)
    return slice_graph(graph, capacity)


def run_sliced(
    graph: CSRGraph,
    request: RunRequest,
    config: Optional[SimConfig] = None,
    power_law_aware: bool = True,
    bytes_per_vertex: int = 9,
    merge_cycles_per_vertex: float = 0.5,
) -> SlicedRunReport:
    """Run ``request`` slice-at-a-time through the OMEGA hierarchy.

    Parameters
    ----------
    graph:
        The full input graph (hot set may exceed the scratchpads).
    request:
        The workload each slice runs (see
        :func:`repro.core.system.run_system`); slicing is meaningful
        for the all-active algorithms (PageRank-style) whose per-slice
        results merge by destination ownership.
    config:
        OMEGA configuration (default: the scaled Table III config).
    power_law_aware:
        Approach 3 (slice so only each slice's top 20% must fit)
        versus approach 2 (whole slice vtxProp fits).
    bytes_per_vertex:
        Scratchpad line size per vertex (vtxProp entries + active bit).
    merge_cycles_per_vertex:
        Cost of combining one owned vertex's partial result at a slice
        boundary (a sequential, prefetch-friendly pass).
    """
    config = config or SimConfig.scaled_omega()
    if not config.use_scratchpad:
        raise SimulationError("run_sliced expects an OMEGA configuration")
    slices = slice_plan(
        graph, config, bytes_per_vertex, power_law_aware=power_law_aware
    )
    reports = [run_system(s.graph, request, config) for s in slices]
    # Each slice boundary merges the slice's owned range; the first
    # slice initializes rather than merges.
    merge_vertices = sum(s.num_owned_vertices for s in slices[1:])
    merge = merge_vertices * merge_cycles_per_vertex / config.core.num_cores
    return SlicedRunReport(
        algorithm=request.algorithm,
        dataset=request.dataset,
        power_law_aware=power_law_aware,
        num_slices=len(slices),
        slice_reports=reports,
        merge_cycles=merge,
    )
