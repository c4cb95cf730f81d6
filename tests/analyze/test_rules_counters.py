"""Counter conservation, formerly lint rule CNT001, as tamper tests.

The rule is now the counter contracts of ``tests/test_contracts.py``.
Each test here feeds one defect of the rule's old fixtures to those
contracts, on a live run's stats or on the live field tables, and
asserts the contract reports it.
"""

import dataclasses

import pytest

from repro.memsim.stats import MemStats
from repro.obs import attribution, timeline

from tests.test_contracts import (
    ghost_fields,
    grid_graph,
    run,
    silent_counters,
    unwritten_counters,
)


@pytest.fixture(scope="module")
def stats():
    return run(grid_graph("pagerank"), "pagerank", "omega").stats


def test_bad_fixture_flags_both_directions(stats):
    # One new counter written but never reported, one reported but
    # never written.
    tampered_cls = dataclasses.make_dataclass(
        "TamperedStats",
        [("dropped_events", int, 0), ("phantom_hits", int, 0)],
        bases=(MemStats,),
        namespace={"as_dict": lambda self: {
            **MemStats.as_dict(self), "phantom_hits": self.phantom_hits,
        }},
    )
    tampered = tampered_cls(
        **{f.name: getattr(stats, f.name)
           for f in dataclasses.fields(MemStats)},
        dropped_events=3,
    )
    assert silent_counters(tampered) == ["dropped_events"]
    never = set(unwritten_counters([tampered]))
    assert never - set(unwritten_counters([stats])) == {"phantom_hits"}


def test_counter_reported_through_property_closure(stats):
    # These reach as_dict only through derived properties
    # (sp_plain_accesses, onchip_traffic_bytes, dram_bytes).
    closure = {"sp_plain_local", "sp_plain_remote", "onchip_line_bytes",
               "onchip_word_bytes", "dram_read_bytes", "dram_write_bytes"}
    assert not closure & set(stats.as_dict())
    assert not closure & set(silent_counters(stats))


def test_snapshot_field_must_be_a_counter(monkeypatch):
    monkeypatch.setattr(timeline, "_STAT_FIELDS",
                        timeline._STAT_FIELDS + ("no_such_counter",))
    assert ghost_fields() == ["no_such_counter"]
    monkeypatch.setattr(attribution, "ATTRIBUTED_FIELDS",
                        attribution.ATTRIBUTED_FIELDS + ("ghost_bytes",))
    assert ghost_fields() == ["ghost_bytes", "no_such_counter"]


def test_as_dict_typo_flagged(monkeypatch, stats):
    as_dict = MemStats.as_dict
    monkeypatch.setattr(MemStats, "as_dict", lambda self: {
        **as_dict(self), "l1_hits": self.l1_hitz,
    })
    with pytest.raises(AttributeError, match="l1_hitz"):
        silent_counters(stats)
