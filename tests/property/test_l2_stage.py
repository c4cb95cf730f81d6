"""The vectorized LRU stage against a plain ``OrderedDict`` LRU.

:func:`repro.memsim.cachestate.lru_stage` decides every access of a
stream over independent LRU sets at once, by stack distance. This file
replays the same streams through the obvious per-access reference and
checks the three things the kernel reads from the stage: the hit flags,
the victim line and dirty bit of each miss, and each set's end contents
in LRU order with dirty bits. No tolerances: one differing access fails.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cachestate import lru_stage


def reference(start, stream, ways):
    """Per-access LRU: ``(hits, victims, end)`` for the stream.

    ``start`` maps a set to its ``[(line, dirty), ...]`` in LRU order;
    ``stream`` is ``[(set, line, write), ...]``. ``victims`` holds
    ``(line, dirty)`` for a miss that evicts, else ``None``; ``end`` is
    ``[(set, line, dirty), ...]`` by ascending set, each in LRU order.
    """
    sets = {s: OrderedDict(c) for s, c in start.items()}
    hits, victims = [], []
    for s, line, write in stream:
        lru = sets.setdefault(s, OrderedDict())
        if line in lru:
            lru.move_to_end(line)
            lru[line] = lru[line] or write
            hits.append(True)
            victims.append(None)
            continue
        hits.append(False)
        victims.append(lru.popitem(last=False) if len(lru) >= ways else None)
        lru[line] = write
    end = [(s, line, d) for s in sorted(sets) for line, d in sets[s].items()]
    return hits, victims, end


def staged(start, stream, ways):
    """The same three outputs from :func:`lru_stage`, with each set's
    start contents fed first as accesses in LRU order."""
    lead = [(s, line, d) for s in sorted(start) for line, d in start[s]]
    rows = lead + list(stream)
    sets = np.array([r[0] for r in rows], dtype=np.int64)
    lines = np.array([r[1] for r in rows], dtype=np.int64)
    writes = np.array([r[2] for r in rows], dtype=bool)
    hit, victim, dirty, end = lru_stage(sets, lines, writes, ways)
    n = len(lead)
    victims = [
        None if v < 0 else (int(lines[v]), bool(dirty[v]))
        for v in victim[n:].tolist()
    ]
    ends = [(int(sets[e]), int(lines[e]), bool(dirty[e])) for e in end]
    return hit[n:].tolist(), victims, ends


def assert_matches(start, stream, ways):
    assert staged(start, stream, ways) == reference(start, stream, ways)


@st.composite
def workloads(draw, ways_choices=(1, 2, 3, 8), max_len=300):
    """A geometry, a dirty start state and a stream over small pools.

    A line is ``key * nsets + set``, so it belongs to one set. A pool
    smaller than ``ways`` makes long windows that hold few distinct
    lines, which walks the stage far past its first block.
    """
    ways = draw(st.sampled_from(ways_choices))
    nsets = draw(st.integers(1, 4))
    pool = draw(st.integers(1, 2 * ways + 2))
    mix = draw(st.sampled_from(["read", "write", "mixed"]))
    start = {}
    for s in range(nsets):
        keys = draw(st.lists(st.integers(0, pool + ways), unique=True,
                             max_size=ways))
        if keys:
            start[s] = [(k * nsets + s, draw(st.booleans())) for k in keys]
    # A skewed draw: one hot key dominates some streams.
    hot = draw(st.integers(0, pool - 1))
    key = st.one_of(st.just(hot), st.integers(0, pool - 1))
    write = {"read": st.just(False), "write": st.just(True),
             "mixed": st.booleans()}[mix]
    events = draw(st.lists(
        st.tuples(st.integers(0, nsets - 1), key, write), max_size=max_len
    ))
    stream = [(s, k * nsets + s, w) for s, k, w in events]
    return start, stream, ways


@given(workloads())
@settings(max_examples=300, deadline=None)
def test_stage_matches_ordered_dict_lru(case):
    assert_matches(*case)


@given(workloads(ways_choices=(130,), max_len=600))
@settings(max_examples=25, deadline=None)
def test_stage_matches_with_more_than_127_ways(case):
    assert_matches(*case)


def test_empty_stream():
    assert staged({}, [], 8) == ([], [], [])
    start = {1: [(5, True), (9, False)]}
    assert_matches(start, [], 2)


def test_single_access():
    for write in (False, True):
        assert_matches({}, [(0, 4, write)], 1)
        assert_matches({0: [(8, True)]}, [(0, 4, write)], 1)
        assert_matches({0: [(4, False)]}, [(0, 4, write)], 1)


def test_long_window_of_few_lines_is_a_hit():
    # One line, then another repeated far past the stage's first block:
    # two distinct lines fit a 2-way set, so the return hits.
    stream = [(0, 0, True)] + [(0, 1, False)] * 700 + [(0, 0, False)]
    assert_matches({}, stream, 2)
    hits, _, _ = staged({}, stream, 2)
    assert hits[-1]


def test_cycles_around_a_wide_set():
    # Cycling ``ways`` lines always hits; ``ways + 1`` lines always
    # misses, each miss evicting the line used ``ways`` accesses ago.
    ways = 200
    for period, expect_hit in ((ways, True), (ways + 1, False)):
        stream = [(0, i % period, i % 3 == 0) for i in range(3 * period)]
        assert_matches({}, stream, ways)
        hits, _, _ = staged({}, stream, ways)
        assert all(h is expect_hit for h in hits[period:])
