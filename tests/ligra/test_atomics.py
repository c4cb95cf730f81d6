"""Tests for the atomic-operation vocabulary."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.ligra.atomics import AtomicOp, apply_atomic, scatter_atomic


class TestApplyAtomic:
    def test_fp_add(self):
        out = apply_atomic(
            AtomicOp.FP_ADD, np.array([1.0, 2.0]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(out, [1.5, 2.5])

    def test_sint_min(self):
        out = apply_atomic(
            AtomicOp.SINT_MIN, np.array([5, -3]), np.array([2, 0])
        )
        np.testing.assert_array_equal(out, [2, -3])

    def test_uint_min(self):
        out = apply_atomic(
            AtomicOp.UINT_MIN,
            np.array([5, 3], dtype=np.uint32),
            np.array([7, 1], dtype=np.uint32),
        )
        np.testing.assert_array_equal(out, [5, 1])

    def test_or(self):
        out = apply_atomic(
            AtomicOp.OR,
            np.array([0b01, 0b10], dtype=np.uint32),
            np.array([0b10, 0b10], dtype=np.uint32),
        )
        np.testing.assert_array_equal(out, [0b11, 0b10])

    def test_sint_add(self):
        out = apply_atomic(AtomicOp.SINT_ADD, np.array([1, 2]), np.array([3, -1]))
        np.testing.assert_array_equal(out, [4, 1])

    def test_uint_cas_only_writes_sentinel(self):
        sentinel = np.iinfo(np.uint32).max
        cur = np.array([sentinel, 7], dtype=np.uint32)
        out = apply_atomic(AtomicOp.UINT_CAS, cur, np.array([3, 3], dtype=np.uint32))
        np.testing.assert_array_equal(out, [3, 7])


class TestScatterAtomic:
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_index_raises_before_update(self, bad):
        arr = np.arange(4, dtype=np.float64)
        with pytest.raises(TraceError, match="must lie in"):
            scatter_atomic(
                AtomicOp.FP_ADD, arr, np.array([0, bad, 2]),
                np.array([1.0, 1.0, 1.0]),
            )
        np.testing.assert_array_equal(arr, [0.0, 1.0, 2.0, 3.0])

    def test_add_with_duplicates(self):
        arr = np.zeros(4)
        changed = scatter_atomic(
            AtomicOp.FP_ADD,
            arr,
            np.array([1, 1, 2]),
            np.array([1.0, 2.0, 0.0]),
        )
        np.testing.assert_allclose(arr, [0, 3.0, 0, 0])
        # index 2 added 0.0: value unchanged, so not reported.
        assert changed.tolist() == [1]

    def test_min_with_duplicates_sequentially_equivalent(self):
        arr = np.full(3, 100, dtype=np.int64)
        scatter_atomic(
            AtomicOp.SINT_MIN,
            arr,
            np.array([0, 0, 0]),
            np.array([50, 10, 70]),
        )
        assert arr[0] == 10

    def test_changed_set_deduplicated(self):
        arr = np.full(4, 100, dtype=np.int64)
        changed = scatter_atomic(
            AtomicOp.SINT_MIN,
            arr,
            np.array([2, 2, 3]),
            np.array([1, 2, 99]),
        )
        assert changed.tolist() == [2, 3]

    def test_unchanged_not_reported(self):
        arr = np.array([5, 5], dtype=np.int64)
        changed = scatter_atomic(
            AtomicOp.SINT_MIN, arr, np.array([0]), np.array([9])
        )
        assert len(changed) == 0

    def test_cas_first_writer_wins(self):
        sentinel = np.iinfo(np.uint32).max
        arr = np.full(3, sentinel, dtype=np.uint32)
        changed = scatter_atomic(
            AtomicOp.UINT_CAS,
            arr,
            np.array([1, 1]),
            np.array([10, 20], dtype=np.uint32),
        )
        assert arr[1] == 10
        assert changed.tolist() == [1]

    def test_cas_skips_visited(self):
        arr = np.array([7], dtype=np.uint32)
        changed = scatter_atomic(
            AtomicOp.UINT_CAS, arr, np.array([0]), np.array([3], dtype=np.uint32)
        )
        assert arr[0] == 7
        assert len(changed) == 0

    def test_empty_indices(self):
        arr = np.zeros(3)
        changed = scatter_atomic(
            AtomicOp.FP_ADD, arr, np.zeros(0, dtype=np.int64), np.zeros(0)
        )
        assert len(changed) == 0

    def test_or_scatter(self):
        arr = np.zeros(2, dtype=np.uint32)
        changed = scatter_atomic(
            AtomicOp.OR,
            arr,
            np.array([0, 0, 1]),
            np.array([1, 2, 0], dtype=np.uint32),
        )
        assert arr[0] == 3
        assert changed.tolist() == [0]


class TestMetadata:
    def test_floating_point_flag(self):
        assert AtomicOp.FP_ADD.is_floating_point
        assert AtomicOp.FP_ADD_DEP.is_floating_point
        assert not AtomicOp.SINT_MIN.is_floating_point

    def test_paper_labels(self):
        assert AtomicOp.FP_ADD.paper_label == "fp add"
        assert AtomicOp.UINT_CAS.paper_label == "unsigned comp."

    @pytest.mark.parametrize("op", list(AtomicOp))
    def test_every_op_has_label(self, op):
        assert op.paper_label
