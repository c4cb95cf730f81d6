"""Suppression syntax, hygiene findings, and the SUP001 meta-rule."""

from repro.analyze import SUPPRESSION_RULE, Suppressions, run_battery

from tests.analyze.conftest import fixture_tree

CLOCK_MODULE = """\
    import time

    def stamp():
        return time.time()  # repro: noqa[DET001] -- host banner timestamp
    """


def test_well_formed_suppression_silences_the_finding(tree):
    root = tree({"src/repro/memsim/clock.py": CLOCK_MODULE})
    result = run_battery(root)
    assert result.findings == []
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "DET001"
    assert result.exit_code() == 0


def test_suppression_only_covers_named_rules(tree):
    root = tree({
        "src/repro/memsim/clock.py": """\
            import time

            def stamp():
                return time.time()  # repro: noqa[EXC001] -- wrong rule named
            """,
    })
    result = run_battery(root)
    assert [f.rule for f in result.findings] == ["DET001"]
    assert result.suppressed == []
    assert result.exit_code() == 1


def test_multi_rule_suppression(tree):
    root = tree({
        "src/repro/memsim/clock.py": """\
            import time

            def stamp():
                return time.time()  # repro: noqa[EXC001, DET001] -- fixture
            """,
    })
    result = run_battery(root)
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_missing_reason_is_sup001_and_does_not_silence():
    result = run_battery(fixture_tree("bad_suppression"))
    rules = sorted(f.rule for f in result.findings)
    # The reasonless noqa is malformed (SUP001), the unknown-id noqa is
    # another SUP001, and the DET001 it tried to hide is still reported.
    assert rules == ["DET001", "SUP001", "SUP001"]
    assert result.suppressed == []
    assert result.exit_code() == 1


def test_unknown_rule_id_message():
    result = run_battery(fixture_tree("bad_suppression"))
    unknown = [f for f in result.findings if "ZZZ999" in f.message]
    assert len(unknown) == 1
    assert unknown[0].rule == "SUP001"


def test_sup001_cannot_silence_itself():
    sup = Suppressions()
    sup.add("src/repro/x.py", 3, ["SUP001"])
    finding = SUPPRESSION_RULE.finding("src/repro/x.py", 3, "malformed")
    assert not sup.is_suppressed(finding)


def test_quoted_syntax_in_strings_is_inert(tree):
    root = tree({
        "src/repro/memsim/doc.py": '''\
            """Mentions `# repro: noqa[DET001]` inside a docstring."""

            EXAMPLE = "x = 1  # repro: noqa[ZZZ999] -- not a real comment"
            ''',
    })
    result = run_battery(root)
    assert result.findings == []


def test_suppressions_still_scanned_with_rule_subset(tree):
    root = tree({
        "src/repro/memsim/clock.py": """\
            LIMIT = 1  # repro: noqa[DET001]
            """,
    })
    result = run_battery(root, rules=["EXC001"])
    assert [f.rule for f in result.findings] == ["SUP001"]
    assert result.exit_code() == 1
