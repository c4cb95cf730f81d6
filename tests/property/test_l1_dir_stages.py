"""The L1, directory and prefetcher stages against their scalar models.

:func:`repro.memsim.stages.lru_stage` with deletion ops is checked
against an ``OrderedDict`` LRU that deletes, :func:`directory_stage`
against :class:`repro.memsim.coherence.Directory` driven one op at a
time, and :func:`prefetch_walk` against
:class:`repro.memsim.prepass.StreamDetector`. Every case starts from a
non-empty state: dirty set contents, directory entries with stale bits
and downgraded owners, prefetcher heads mid-stream. No tolerances.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.coherence import Directory
from repro.memsim.prepass import StreamDetector
from repro.memsim.stages import (
    OP_EVICT,
    OP_READ,
    OP_WRITE,
    bits_masks,
    directory_stage,
    lru_stage,
    mask_bits,
    prefetch_walk,
)


# --------------------------------------------------------------------
# L1: LRU sets with deletions
# --------------------------------------------------------------------
def lru_reference(start, ops, ways):
    """Per-op LRU with deletions: ``(flags, victims, end)``.

    ``ops`` is ``[(set, line, write, delete), ...]``. ``flags`` is the
    hit of an access or the removal of a deletion; ``victims`` holds
    ``(line, dirty)`` for a miss that evicts, else ``None``.
    """
    sets = {s: OrderedDict(c) for s, c in start.items()}
    flags, victims = [], []
    for s, line, write, delete in ops:
        lru = sets.setdefault(s, OrderedDict())
        victims.append(None)
        if delete:
            flags.append(line in lru)
            lru.pop(line, None)
            continue
        if line in lru:
            lru.move_to_end(line)
            lru[line] = lru[line] or write
            flags.append(True)
            continue
        flags.append(False)
        if len(lru) >= ways:
            victims[-1] = lru.popitem(last=False)
        lru[line] = write
    end = [(s, line, d) for s in sorted(sets) for line, d in sets[s].items()]
    return flags, victims, end


def lru_staged(start, ops, ways):
    lead = [(s, line, d, False) for s in sorted(start)
            for line, d in start[s]]
    rows = lead + list(ops)
    sets = np.array([r[0] for r in rows], dtype=np.int64)
    lines = np.array([r[1] for r in rows], dtype=np.int64)
    writes = np.array([r[2] for r in rows], dtype=bool)
    deletes = np.array([r[3] for r in rows], dtype=bool)
    hit, victim, dirty, end = lru_stage(sets, lines, writes, ways, deletes)
    n = len(lead)
    victims = [
        None if v < 0 else (int(lines[v]), bool(dirty[v]))
        for v in victim[n:].tolist()
    ]
    ends = [(int(sets[e]), int(lines[e]), bool(dirty[e])) for e in end]
    return hit[n:].tolist(), victims, ends


@st.composite
def lru_workloads(draw, ways_choices=(1, 2, 4), max_len=300):
    """A dirty start state and an access stream with deletions mixed
    in; a small pool keeps lines returning after they were deleted."""
    ways = draw(st.sampled_from(ways_choices))
    nsets = draw(st.integers(1, 3))
    pool = draw(st.integers(1, 2 * ways + 2))
    start = {}
    for s in range(nsets):
        keys = draw(st.lists(st.integers(0, pool + ways), unique=True,
                             max_size=ways))
        if keys:
            start[s] = [(k * nsets + s, draw(st.booleans())) for k in keys]
    p_del = draw(st.sampled_from([0.0, 0.2, 0.5]))
    events = draw(st.lists(
        st.tuples(st.integers(0, nsets - 1), st.integers(0, pool - 1),
                  st.booleans(), st.floats(0, 1)),
        max_size=max_len,
    ))
    ops = [(s, k * nsets + s, w, u < p_del) for s, k, w, u in events]
    return start, ops, ways


@given(lru_workloads())
@settings(max_examples=400, deadline=None)
def test_lru_with_deletions_matches_ordered_dict(case):
    start, ops, ways = case
    assert lru_staged(start, ops, ways) == lru_reference(start, ops, ways)


@given(lru_workloads(ways_choices=(130,), max_len=700))
@settings(max_examples=20, deadline=None)
def test_lru_with_deletions_above_int8_ways(case):
    start, ops, ways = case
    assert lru_staged(start, ops, ways) == lru_reference(start, ops, ways)


def test_lru_deletion_then_return_is_a_miss():
    ops = [(0, 1, True, False), (0, 1, False, True), (0, 1, False, False)]
    flags, victims, end = lru_staged({}, ops, 2)
    assert flags == [False, True, False]
    assert end == [(0, 1, False)]
    assert (flags, victims, end) == lru_reference({}, ops, 2)


def test_lru_deletion_frees_a_way_for_a_long_window():
    # Two lines fill a 2-way set, one is deleted; the survivor stays
    # resident through a long run of one other line.
    ops = [(0, 0, True, False), (0, 1, False, False), (0, 1, False, True)]
    ops += [(0, 2, False, False)] * 400 + [(0, 0, False, False)]
    assert lru_staged({}, ops, 2) == lru_reference({}, ops, 2)
    assert lru_staged({}, ops, 2)[0][-1]


# --------------------------------------------------------------------
# Directory
# --------------------------------------------------------------------
def directory_reference(entries, ops, ncores):
    d = Directory()
    d._lines = {k: list(v) for k, v in entries.items()}
    codes = []
    for line, core, kind in ops:
        if kind == OP_READ:
            _, wb = d.on_read(line, core)
            codes.append(int(wb))
        elif kind == OP_WRITE:
            inval, wb = d.on_write(line, core)
            codes.append(2 * bin(inval).count("1") + int(wb))
        else:
            d.on_eviction(line, core)
            codes.append(0)
    return codes, d._lines


def directory_staged(entries, ops, ncores):
    lines = sorted({op[0] for op in ops})
    ids = {line: i for i, line in enumerate(lines)}
    masks = [entries.get(line, [0, -1])[0] for line in lines]
    owners = np.array([entries.get(line, [0, -1])[1] for line in lines],
                      dtype=np.int64)
    carried = mask_bits(masks, ncores)
    codes, end, own = directory_stage(
        np.array([ids[op[0]] for op in ops], dtype=np.int64),
        np.array([op[1] for op in ops], dtype=np.int64),
        np.array([op[2] for op in ops], dtype=np.int8),
        carried, owners,
    )
    out = {k: list(v) for k, v in entries.items()}
    for line, mask, owner in zip(lines, bits_masks(end), own.tolist()):
        if mask:
            out[line] = [mask, owner]
        else:
            out.pop(line, None)
    return codes.tolist(), out


@st.composite
def directory_workloads(draw, ncores_choices=(2, 4, 8)):
    """Carried entries (stale bits, downgraded or live owners) and a
    random R/W/E stream over a few lines."""
    ncores = draw(st.sampled_from(ncores_choices))
    nlines = draw(st.integers(1, 5))
    entries = {}
    for line in range(nlines):
        if draw(st.booleans()):
            mask = draw(st.integers(1, (1 << ncores) - 1))
            holders = [c for c in range(ncores) if mask >> c & 1]
            owner = draw(st.sampled_from([-1] + holders))
            entries[line] = [mask, owner]
    ops = draw(st.lists(
        st.tuples(st.integers(0, nlines - 1), st.integers(0, ncores - 1),
                  st.sampled_from([OP_READ, OP_WRITE, OP_EVICT])),
        min_size=1, max_size=200,
    ))
    return entries, ops, ncores


@given(directory_workloads())
@settings(max_examples=400, deadline=None)
def test_directory_stage_matches_directory(case):
    entries, ops, ncores = case
    assert directory_staged(entries, ops, ncores) == \
        directory_reference(entries, ops, ncores)


@given(directory_workloads(ncores_choices=(64, 128)))
@settings(max_examples=40, deadline=None)
def test_directory_stage_wide_masks(case):
    entries, ops, ncores = case
    assert directory_staged(entries, ops, ncores) == \
        directory_reference(entries, ops, ncores)


def test_directory_stale_bit_is_invalidated():
    # Core 1's bit is stale (its copy was evicted clean); core 0's write
    # still counts it, and core 2's read of the modified line writes back.
    entries = {7: [0b11, -1]}
    ops = [(7, 0, OP_WRITE), (7, 2, OP_READ), (7, 0, OP_EVICT)]
    assert directory_staged(entries, ops, 4) == \
        directory_reference(entries, ops, 4)
    assert directory_staged(entries, ops, 4)[0] == [2, 1, 0]


def test_mask_bits_round_trip_128_cores():
    masks = [0, 1, (1 << 127) | 5, (1 << 64) - 1, 1 << 64]
    assert bits_masks(mask_bits(masks, 128)) == masks


# --------------------------------------------------------------------
# Prefetcher
# --------------------------------------------------------------------
@st.composite
def prefetch_workloads(draw):
    """Carried heads and a miss stream of sequential runs mixed with
    jumps, per core."""
    ncores = draw(st.integers(1, 4))
    heads = [draw(st.lists(st.integers(-2, 60), min_size=16, max_size=16))
             for _ in range(ncores)]
    nexts = [draw(st.integers(0, 15)) for _ in range(ncores)]
    runs = draw(st.lists(
        st.tuples(st.integers(0, ncores - 1), st.integers(0, 60),
                  st.integers(1, 40)),
        max_size=30,
    ))
    stream = []
    for core, base, length in runs:
        stream += [(core, base + i) for i in range(length)]
    order = draw(st.permutations(range(len(stream))))
    # Interleave the runs but keep most of each run in order.
    if draw(st.booleans()):
        stream = [stream[i] for i in order]
    return heads, nexts, stream


@given(prefetch_workloads())
@settings(max_examples=300, deadline=None)
def test_prefetch_walk_matches_stream_detector(case):
    heads, nexts, stream = case
    ref = StreamDetector(len(heads))
    ref._heads = [list(h) for h in heads]
    ref._next = list(nexts)
    expect = [ref.observe(c, x) for c, x in stream]
    h = [list(x) for x in heads]
    nx = list(nexts)
    got = prefetch_walk(
        h, nx, np.array([c for c, _ in stream], dtype=np.int64),
        np.array([x for _, x in stream], dtype=np.int64),
    )
    assert got.tolist() == expect
    assert h == ref._heads
    assert nx == ref._next
