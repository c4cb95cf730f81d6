"""Manifest blocks, formerly lint rule SCH001, as tamper tests.

The rule is now ``block_drift`` in ``tests/test_contracts.py``: the
blocks a run's manifest writes, ``KNOWN_BLOCKS`` and the quoted block
names in ``docs/trace-format.md`` must agree. Each test tampers with a
live report's manifest, the live ``KNOWN_BLOCKS`` or the page text.
"""

import pytest

from repro.core.report import SimReport
from repro.obs import manifest_diff

from tests.test_contracts import TRACE_DOC, block_drift, grid_graph, run


@pytest.fixture(scope="module")
def report():
    return run(grid_graph("pagerank"), "pagerank", "omega")


def test_bad_fixture_flags_missing_and_stale_blocks(monkeypatch, report):
    manifest = SimReport.manifest
    monkeypatch.setattr(SimReport, "manifest", lambda self: {
        **manifest(self), "mystery": {},
    })
    monkeypatch.setattr(manifest_diff, "KNOWN_BLOCKS",
                        manifest_diff.KNOWN_BLOCKS | {"stale_block"})
    assert block_drift(report.manifest()) == [
        "stale stale_block", "undocumented mystery", "ungated mystery",
    ]


def test_in_sync_trees_are_clean(report):
    assert block_drift(report.manifest()) == []


def test_docs_table_must_mention_every_block(report):
    page = TRACE_DOC.replace('"workload"', "workload")
    assert block_drift(report.manifest(), page) == ["undocumented workload"]


def test_subscript_inserts_count_as_blocks(monkeypatch, report):
    # A block added to the built dict, not to its literal, still counts.
    manifest = SimReport.manifest

    def with_surprise(self):
        doc = manifest(self)
        doc["surprise"] = 1
        return doc

    monkeypatch.setattr(SimReport, "manifest", with_surprise)
    assert "ungated surprise" in block_drift(report.manifest())
