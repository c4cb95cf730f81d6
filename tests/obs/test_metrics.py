"""Tests for the metrics registry primitives."""

import pytest

from repro.errors import ObsError

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
    summarize,
    use_registry,
)


class TestInstruments:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("replay.events")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ObsError):
            c.inc(-1)

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")


class TestRegistryGlobals:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_null_instruments_are_noops(self):
        c = NULL_REGISTRY.counter("anything")
        c.inc(10)
        assert NULL_REGISTRY.snapshot() == {"counters": {}}

    def test_use_registry_scopes_installation(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
            get_registry().counter("x").inc()
        assert get_registry() is NULL_REGISTRY
        assert reg.snapshot()["counters"]["x"] == 1

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            assert prev is NULL_REGISTRY
            assert get_registry() is reg
        finally:
            set_registry(None)
        assert get_registry() is NULL_REGISTRY

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.counter("b")
        assert reg.snapshot() == {"counters": {"b": 0, "c": 3}}


class TestPercentiles:
    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for p in (0, 5, 25, 50, 75, 95, 100):
            assert percentile(data, p) == pytest.approx(
                float(np.percentile(data, p))
            )

    def test_empty_raises(self):
        with pytest.raises(ObsError):
            percentile([], 50)

    def test_summarize_empty_safe(self):
        assert summarize([]) == {"count": 0}

    def test_summarize_keys(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert {"p5", "p25", "p50", "p75", "p95"} <= set(s)
