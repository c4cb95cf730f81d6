"""Docs in sync with the code, formerly lint rule DOC001, as tamper tests.

The rule is now ``undocumented_flags`` and ``undocumented_env_vars`` in
``tests/test_contracts.py`` plus ``trace_doc_drift`` in
``tests/ligra/test_trace_io.py``. Each test feeds them a tampered
parser, source tree or page text.
"""

import re

from repro.cli import build_parser
from repro.core.report import MANIFEST_SCHEMA
from repro.ligra.trace import TRACE_FORMAT_VERSION
from repro.obs.timeline import TIMELINE_SCHEMA

from tests.ligra.test_trace_io import trace_doc_drift
from tests.test_contracts import (
    DOCS,
    TRACE_DOC,
    undocumented_env_vars,
    undocumented_flags,
)


def test_bad_fixture_flags_all_four_drifts(tree):
    parser = build_parser()
    parser.add_argument("--mystery")
    assert undocumented_flags(parser) == ["--mystery"]
    root = tree({"src/repro/knobs.py": 'SECRET = "REPRO_SECRET"\n'})
    assert undocumented_env_vars(root / "src") == ["REPRO_SECRET"]
    doc = re.sub(r"(TRACE_FORMAT_VERSION`, currently )\d+", r"\g<1>2",
                 TRACE_DOC)
    doc = doc.replace(TIMELINE_SCHEMA, "omega-repro/timeline/v0")
    assert trace_doc_drift(doc) == ["TRACE_FORMAT_VERSION", TIMELINE_SCHEMA]


def test_documented_flag_and_env_var_are_clean(tree):
    parser = build_parser()
    parser.add_argument("--mystery")
    docs = "Use `--mystery` and set `REPRO_CACHE_DIR`."
    root = tree({"src/repro/knobs.py": 'CACHE_ENV = "REPRO_CACHE_DIR"\n'})
    assert undocumented_flags(parser, DOCS + docs) == []
    assert undocumented_env_vars(root / "src", docs) == []


def test_matching_versions_are_clean():
    doc = (
        f"(`TRACE_FORMAT_VERSION`, currently {TRACE_FORMAT_VERSION}).\n"
        f"Tags: {MANIFEST_SCHEMA}, {TIMELINE_SCHEMA}.\n"
    )
    assert trace_doc_drift(doc) == []


def test_schema_tag_must_appear_in_trace_doc():
    # MANIFEST_SCHEMA bumped in code only: the page names the old tag.
    assert MANIFEST_SCHEMA in TRACE_DOC
    doc = TRACE_DOC.replace(MANIFEST_SCHEMA, "omega-repro/run-manifest/v0")
    assert trace_doc_drift(doc) == [MANIFEST_SCHEMA]
