"""The dynamic backend's counting trainer against the per-access loop.

:class:`repro.memsim.backends.dynamic.FrequencyTrainer` decides every
access of a piece at once, as a rank over running counts. This file
replays the same streams through the loop the backend used to run —
one dict of resident (vertex, count) entries per hash set, the victim
being the smallest count, first inserted on ties — and checks that
both give identical residency flags and per-vertex counts, piece by
piece, with the state carried between pieces. No tolerances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.backends.dynamic import FrequencyTrainer


class LoopTrainer:
    """The per-access frequency trainer, state carried across pieces."""

    def __init__(self, num_sets, slots):
        self.sets = [dict() for _ in range(num_sets)]
        self.freq = {}
        self.slots = slots

    def train(self, verts):
        sets, freq, slots = self.sets, self.freq, self.slots
        resident_flags = [False] * len(verts)
        for j, vertex in enumerate(verts.tolist()):
            count = freq.get(vertex, 0) + 1
            freq[vertex] = count
            entry_set = sets[vertex % len(sets)]
            if vertex in entry_set:
                entry_set[vertex] = count
                resident_flags[j] = True
            elif len(entry_set) < slots:
                entry_set[vertex] = count
                resident_flags[j] = True
            else:
                victim = min(entry_set, key=entry_set.get)
                if entry_set[victim] < count:
                    del entry_set[victim]
                    entry_set[vertex] = count
                    resident_flags[j] = True
        return np.array(resident_flags, dtype=bool)


def assert_same(num_sets, slots, pieces):
    loop = LoopTrainer(num_sets, slots)
    counting = FrequencyTrainer(num_sets, slots)
    for k, piece in enumerate(pieces):
        want = loop.train(piece)
        got = counting.train(piece)
        assert got.dtype == bool
        assert got.tolist() == want.tolist(), f"piece {k}"
        counts = {v: int(counting.counts[v])
                  for v in np.flatnonzero(counting.counts).tolist()}
        assert counts == loop.freq, f"counts after piece {k}"


@st.composite
def streams(draw):
    """(sets, slots, pieces): a zipf-like vertex stream cut in 1-4
    pieces. Skewed draws over few vertices make many count ties."""
    num_sets = draw(st.integers(1, 6))
    slots = draw(st.integers(1, 5))
    num_vertices = draw(st.integers(1, 60))
    n = draw(st.integers(0, 400))
    skew = draw(st.floats(0.0, 2.5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_vertices + 1) ** skew
    # Shuffle which ids are hot so hot vertices land in any set.
    verts = rng.permutation(num_vertices)[
        rng.choice(num_vertices, n, p=weights / weights.sum())]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return num_sets, slots, np.split(verts.astype(np.int64), cuts)


@settings(max_examples=300, deadline=None)
@given(streams())
def test_counting_trainer_matches_loop(case):
    assert_same(*case)


def test_tied_counts_never_displace_a_resident():
    # One set of 2 slots: 0 and 1 fill it with count 1; 2 reaches
    # count 1 (ties, stays out), then 2 (beats a count-1 resident).
    verts = np.array([0, 1, 2, 2, 0, 1, 0], dtype=np.int64)
    assert_same(1, 2, [verts])
    flags = FrequencyTrainer(1, 2).train(verts)
    assert flags.tolist() == [True, True, False, True, True, False, True]


def test_state_carries_across_many_small_pieces():
    rng = np.random.default_rng(7)
    verts = (rng.zipf(1.3, 3000) % 97).astype(np.int64)
    assert_same(5, 3, np.split(verts, np.arange(1, 3000, 7)))


def test_vertex_ids_beyond_the_count_array_grow_it():
    trainer = FrequencyTrainer(2, 1)
    trainer.train(np.array([3], dtype=np.int64))
    trainer.train(np.array([1000, 3], dtype=np.int64))
    assert trainer.counts[3] == 2 and trainer.counts[1000] == 1


def test_empty_piece():
    assert FrequencyTrainer(3, 2).train(np.zeros(0, dtype=np.int64)).size == 0
