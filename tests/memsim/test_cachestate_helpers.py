"""Unit tests for the cachestate helpers shared across the kernel."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.intsort import stable_argsort
from repro.memsim.cachestate import (
    CacheSystem,
    iter_set_bits,
    lru_stage,
    screen_guaranteed_hits,
)
from repro.memsim.dram import DramModel
from repro.memsim.interconnect import Crossbar
from repro.memsim.stages import MAX_STREAM
from repro.memsim.stats import MemStats


class TestIterSetBits:
    def test_empty_mask(self):
        assert list(iter_set_bits(0)) == []

    def test_single_bit_masks(self):
        for pos in (0, 1, 7, 15, 31, 63):
            assert list(iter_set_bits(1 << pos)) == [pos]

    def test_full_mask(self):
        assert list(iter_set_bits((1 << 16) - 1)) == list(range(16))

    def test_sparse_mask_lsb_first(self):
        mask = (1 << 2) | (1 << 5) | (1 << 11)
        assert list(iter_set_bits(mask)) == [2, 5, 11]

    def test_matches_bin_representation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << 20))
            expect = [i for i in range(20) if mask >> i & 1]
            assert list(iter_set_bits(mask)) == expect


def screen(cores, lines, writes, num_sets=4):
    return screen_guaranteed_hits(
        np.asarray(cores, dtype=np.int64),
        np.asarray(lines, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        num_sets,
    ).tolist()


def naive_screen(cores, lines, writes, num_sets):
    """The screening rules restated event by event, O(n^2)."""
    out = []
    for i in range(len(lines)):
        slot = (cores[i], lines[i] % num_sets)
        prev = next(
            (j for j in range(i - 1, -1, -1)
             if (cores[j], lines[j] % num_sets) == slot),
            None,
        )
        if prev is None or lines[prev] != lines[i]:
            out.append(False)
            continue
        between = [j for j in range(prev + 1, i) if lines[j] == lines[i]]
        if writes[i]:
            out.append(bool(writes[prev]) and not between)
        else:
            out.append(not any(writes[j] for j in between))
    return out


class TestScreenGuaranteedHits:
    def test_empty_batch(self):
        assert screen([], [], []) == []

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_batches_screen_nothing(self, n):
        assert screen([0] * n, [10] * n, [False] * n) == [False] * n

    def test_first_touch_never_screened(self):
        assert screen([0], [10], [False]) == [False]

    def test_immediate_reread_screened(self):
        # Same core, same line, back to back: second event is a
        # guaranteed MRU hit.
        assert screen([0, 0], [10, 10], [False, False]) == [False, True]

    def test_other_core_write_intervenes(self):
        # Core 1 *writes* the line between core 0's two reads: the
        # second read may have been invalidated, so it must replay.
        assert screen(
            [0, 1, 0], [10, 10, 10], [False, True, False]
        ) == [False, False, False]

    def test_other_core_read_is_transparent(self):
        # Core 1 only *reads* the line in between: a read never
        # invalidates another core's copy and a read hit never
        # consults the directory, so core 0's second read still
        # screens.
        assert screen(
            [0, 1, 0], [10, 10, 10], [False] * 3
        ) == [False, False, True]

    def test_other_core_read_does_not_unblock_writes(self):
        # The write rule stays strict: core 1's intervening read
        # downgrades core 0's exclusive ownership (the write would
        # have to invalidate core 1's copy), so the second write
        # must replay.
        assert screen(
            [0, 0, 1, 0], [10, 10, 10, 10], [True, True, False, True]
        ) == [False, True, False, False]

    def test_set_conflict_intervenes(self):
        # Lines 2 and 6 share set 2 (num_sets=4): the conflicting
        # touch could have evicted line 2, so no screen.
        assert screen(
            [0, 0, 0], [2, 6, 2], [False] * 3
        ) == [False, False, False]

    def test_different_set_does_not_block(self):
        # Line 3 lives in another set; line 2 stays MRU in its own.
        assert screen(
            [0, 0, 0], [2, 3, 2], [False] * 3
        ) == [False, False, True]

    def test_write_after_read_not_screened(self):
        # The write's dirty/directory transition is real work.
        assert screen([0, 0], [10, 10], [False, True]) == [False, False]

    def test_write_after_write_screened(self):
        assert screen([0, 0], [10, 10], [True, True]) == [False, True]

    def test_read_after_write_screened(self):
        assert screen([0, 0], [10, 10], [True, False]) == [False, True]

    def test_chain_of_repeats(self):
        # Screening chains: every repeat after the first is covered.
        assert screen(
            [1] * 5, [7] * 5, [False] * 5
        ) == [False, True, True, True, True]

    @pytest.mark.parametrize("num_sets", [1, 2, 4, 16])
    def test_never_screens_distinct_lines(self, num_sets):
        out = screen([0, 0, 0], [1, 2, 3], [False] * 3, num_sets)
        assert out == [False, False, False]

    def test_all_write_chain_screens_in_one_pass(self):
        # A same-core run of writes collapses in a single pass: every
        # adjacent pair satisfies the write rule simultaneously.
        assert screen(
            [0] * 5, [7] * 5, [True] * 5
        ) == [False, True, True, True, True]

    def test_write_chains_per_core_one_pass(self):
        # Two cores' write chains on distinct lines, interleaved: the
        # other core's events never touch this core's line, so each
        # chain still collapses to its first write in the one pass.
        assert screen(
            [0, 1] * 6, [7, 9] * 6, [True] * 12
        ) == [False, False] + [True] * 10

    def test_write_after_interleaved_read_not_screened(self):
        # Same-core W,R,W: the read screens, but the second write's
        # slot predecessor is that read, so the write rule fails and
        # the write replays through the kernel's stages (where it is
        # an ordinary L1 write hit).
        assert screen(
            [0, 0, 0], [10, 10, 10], [True, False, True]
        ) == [False, True, False]

    @pytest.mark.parametrize("num_sets", [1, 4])
    def test_num_sets_one_merges_all_sets(self, num_sets):
        # With one set per core, every line conflicts: the re-touch of
        # line 2 cannot screen. With four sets, lines 2 and 3 map to
        # different sets and it screens — the contrast pins the slot
        # computation.
        assert screen(
            [0, 0, 0], [2, 3, 2], [False] * 3, num_sets
        ) == [False, False, num_sets > 1]

    @pytest.mark.parametrize("num_sets", [1, 4])
    def test_matches_naive_rules_on_random_batches(self, num_sets):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            cores = rng.integers(0, 4, n)
            lines = rng.integers(0, 24, n)
            writes = rng.random(n) < 0.4
            assert screen(cores, lines, writes, num_sets) == naive_screen(
                cores.tolist(), lines.tolist(), writes.tolist(), num_sets
            )

    def test_wide_line_window_falls_back(self):
        # Line ids spanning more than 2**16 take stable_argsort's
        # multi-pass radix path; the screen must not change.
        assert screen(
            [0, 0, 0], [10, 10 + (1 << 20), 10], [False] * 3
        ) == [False, False, False]
        assert screen(
            [0, 0], [1 << 40, 1 << 40], [False, False]
        ) == [False, True]


class TestLineArgsort:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(7)
        # Narrow windows (one radix pass) and wide windows (three
        # passes) of line ids must both reproduce numpy's stable argsort.
        for lines in (
            rng.integers(4_194_304, 4_194_304 + 50_000, 500),
            rng.integers(0, 1 << 40, 500),
            np.array([], dtype=np.int64),
        ):
            lines = lines.astype(np.int64)
            expect = np.argsort(lines, kind="stable")
            assert stable_argsort(lines).tolist() == expect.tolist()


class TestInt32Widths:
    """Positions, ranks and keys are int32: longer streams are refused
    before anything is allocated (zero-stride views stand in for them)."""

    def test_lru_stage_refuses_longer_streams(self):
        m = MAX_STREAM + 1
        ops = np.broadcast_to(np.int32(0), (m,))
        with pytest.raises(SimulationError, match="at most"):
            lru_stage(ops, ops, np.broadcast_to(False, (m,)), 4)

    def test_kernel_refuses_longer_batches(self):
        config = SimConfig.scaled_baseline(num_cores=4)
        system = CacheSystem(config, MemStats(num_cores=4),
                             DramModel(config.dram),
                             Crossbar(config.interconnect, 4))
        m = MAX_STREAM + 1
        ints = np.broadcast_to(np.int64(0), (m,))
        flags = np.broadcast_to(False, (m,))
        with pytest.raises(SimulationError, match="at most"):
            system.replay_cache_path(ints, ints, ints, ints, flags, flags,
                                     [0.0] * 4, [0.0] * 4)
