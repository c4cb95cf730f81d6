"""Property tests for the radix argsort and the bitmap id dedup.

Both primitives promise *exactly* numpy's answer: ``stable_argsort``
equals ``np.argsort(keys, kind="stable")`` for every integer dtype and
key span, and ``unique_ids`` equals ``np.unique`` for in-range ids.
CSR builds, batch screening and the estimator sort through them, so a
mismatch here would move counters everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.intsort import stable_argsort, unique_ids

DTYPES = [np.int16, np.int32, np.int64, np.uint16, np.uint32, np.uint64]
#: Key spans on both sides of each digit boundary (8-bit, then 16-bit).
SPAN_BITS = [0, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64]


@st.composite
def integer_keys(draw):
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    full = int(info.max) - int(info.min)
    span = min((1 << draw(st.sampled_from(SPAN_BITS))) - 1, full)
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    hi = lo + span
    # A small pool forces ties, which is where stability shows.
    pool = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6))
    body = draw(st.lists(
        st.one_of(st.sampled_from(pool), st.integers(lo, hi)), max_size=60
    ))
    ends = draw(st.sampled_from([[], [lo], [lo, hi]]))
    keys = draw(st.permutations(body + ends))
    return np.array(keys, dtype=dtype)


def _check(keys):
    expect = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    assert got.dtype == expect.dtype
    np.testing.assert_array_equal(got, expect)


class TestStableArgsort:
    @given(integer_keys())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_stable_argsort(self, keys):
        _check(keys)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_single_and_all_equal(self, dtype):
        _check(np.array([], dtype=dtype))
        _check(np.array([7], dtype=dtype))
        _check(np.full(50, 9, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_negative_keys(self, dtype):
        info = np.iinfo(dtype)
        keys = np.array([-1, 0, int(info.min), -1, int(info.max), 0, -5],
                        dtype=dtype)
        _check(keys)

    @pytest.mark.parametrize(
        "span, passes",
        [(0, 1), ((1 << 8) - 1, 1), (1 << 8, 1), ((1 << 16) - 1, 1),
         (1 << 16, 2),
         ((1 << 32) - 1, 2), (1 << 32, 3), ((1 << 48) - 1, 3), (1 << 48, 4),
         ((1 << 64) - 1, 4)],
    )
    def test_pass_count_follows_span(self, monkeypatch, span, passes):
        rng = np.random.default_rng(span % 1009)
        keys = rng.integers(0, span, 200, dtype=np.uint64, endpoint=True)
        keys[:2] = (0, span)
        calls = []
        real = np.argsort

        def counting(a, *args, **kwargs):
            calls.append(a.dtype)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        got = stable_argsort(keys)
        monkeypatch.undo()
        digit = np.uint8 if span < 1 << 8 else np.uint16
        assert calls == [np.dtype(digit)] * passes
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("span", [0, 1, 63, 64, 255])
    def test_byte_span_takes_one_uint8_pass(self, monkeypatch, dtype, span):
        """Spans below 2**8 (cache-slot sorts) sort one uint8 digit,
        also when the keys sit at the dtype's extremes."""
        info = np.iinfo(dtype)
        rng = np.random.default_rng(span)
        for lo in (int(info.min), int(info.max) - span, 0):
            offsets = rng.integers(0, span, 300, endpoint=True).tolist()
            keys = np.array([lo + d for d in offsets], dtype=dtype)
            calls = []
            real = np.argsort

            def counting(a, *args, **kwargs):
                calls.append(a.dtype)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np, "argsort", counting)
            got = stable_argsort(keys)
            monkeypatch.undo()
            assert calls == [np.dtype(np.uint8)]
            np.testing.assert_array_equal(
                got, np.argsort(keys, kind="stable")
            )

    def test_rejects_non_integer_keys(self):
        with pytest.raises(TraceError):
            stable_argsort(np.array([1.0, 0.5]))


@st.composite
def vertex_ids(draw):
    n = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    ids = draw(st.lists(st.integers(0, n - 1), max_size=80))
    return n, np.array(ids, dtype=dtype)


class TestUniqueIds:
    @given(vertex_ids())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_unique(self, case):
        n, ids = case
        expect = np.unique(ids)
        got = unique_ids(ids, n)
        assert got.dtype == expect.dtype
        np.testing.assert_array_equal(got, expect)

    @given(vertex_ids(), st.integers(0, 50), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_raises(self, case, excess, negative):
        n, ids = case
        bad = -1 - excess if negative else n + excess
        with pytest.raises(TraceError):
            unique_ids(np.append(ids, bad), n)

    def test_empty_keeps_dtype(self):
        got = unique_ids(np.array([], dtype=np.int32), 5)
        assert got.dtype == np.int32 and len(got) == 0
