"""Tests for workload characterization (Figs 3-5 machinery)."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core.context import RunRequest
from repro.errors import TraceError
from repro.core.characterization import (
    access_fraction_to_top,
    measured_algorithm_profile,
    tmam_breakdown,
)
from repro.core.system import run_system
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.tc import run_tc


class TestAccessFractionToTop:
    def test_powerlaw_graph_concentrates(self, small_powerlaw):
        res = run_pagerank(small_powerlaw)
        frac = access_fraction_to_top(res.trace, small_powerlaw)
        # Fig 4b: over 75% in the paper; our stand-ins are a bit milder
        # but must clearly exceed the uniform 20% line.
        assert frac > 50.0

    def test_road_graph_does_not(self, small_road):
        res = run_pagerank(small_road)
        frac = access_fraction_to_top(res.trace, small_road)
        assert frac < 50.0

    def test_fraction_one_is_total(self, small_powerlaw):
        res = run_pagerank(small_powerlaw)
        assert access_fraction_to_top(
            res.trace, small_powerlaw, fraction=1.0
        ) == pytest.approx(100.0)

    def test_empty_trace(self, small_powerlaw):
        res = run_pagerank(small_powerlaw, trace=False)
        assert access_fraction_to_top(res.trace, small_powerlaw) == 0.0

    def test_invalid_fraction(self, small_powerlaw):
        res = run_pagerank(small_powerlaw)
        with pytest.raises(TraceError):
            access_fraction_to_top(res.trace, small_powerlaw, fraction=0)


class TestTmam:
    def test_baseline_memory_bound(self, small_powerlaw):
        rep = run_system(
            small_powerlaw, RunRequest("pagerank"),
            SimConfig.scaled_baseline(num_cores=4),
        )
        breakdown = tmam_breakdown(rep)
        # Fig 3: graph workloads are strongly memory bound (~71%).
        assert breakdown["memory_bound"] > 0.5
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_fractions_in_range(self, small_powerlaw):
        rep = run_system(
            small_powerlaw, RunRequest("pagerank"),
            SimConfig.scaled_baseline(num_cores=4),
        )
        for v in tmam_breakdown(rep).values():
            assert 0.0 <= v <= 1.0


class TestMeasuredProfile:
    def test_pagerank_profile(self, small_powerlaw):
        res = run_pagerank(small_powerlaw)
        prof = measured_algorithm_profile(res.trace)
        assert prof.total_events == res.trace.num_events
        assert prof.atomic_events == small_powerlaw.num_edges
        assert prof.atomic_fraction > 0.05
        # Random scatter to vtxProp dominates for PageRank.
        assert prof.random_fraction > 0.5

    def test_tc_profile_low_atomic_low_random(self, small_ba_undirected):
        res = run_tc(small_ba_undirected)
        prof = measured_algorithm_profile(res.trace)
        assert prof.edgelist_events > prof.vtxprop_events
        assert prof.atomic_fraction < 0.3

    def test_component_counts_sum(self, small_powerlaw):
        res = run_pagerank(small_powerlaw)
        prof = measured_algorithm_profile(res.trace)
        assert (
            prof.vtxprop_events + prof.edgelist_events + prof.ngraph_events
            == prof.total_events
        )

    def test_empty_trace_profile(self, small_powerlaw):
        res = run_pagerank(small_powerlaw, trace=False)
        prof = measured_algorithm_profile(res.trace)
        assert prof.total_events == 0
        assert prof.atomic_fraction == 0.0
