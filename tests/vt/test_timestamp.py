"""Unit + property tests for Timestamp, TsRange and corresponds()."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vt import EARLIEST, LATEST, Timestamp, TsRange, corresponds


class TestTimestamp:
    def test_construction(self):
        assert Timestamp(5).value == 5

    def test_copy_construction(self):
        assert Timestamp(Timestamp(5)).value == 5

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Timestamp(1.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Timestamp(-1)

    def test_immutable(self):
        ts = Timestamp(1)
        with pytest.raises(AttributeError):
            ts.value = 2

    def test_equality_with_int(self):
        assert Timestamp(3) == 3
        assert 3 == Timestamp(3)
        assert Timestamp(3) != 4

    def test_ordering(self):
        assert Timestamp(1) < Timestamp(2)
        assert Timestamp(2) <= 2
        assert Timestamp(5) > 4
        assert Timestamp(5) >= Timestamp(5)

    def test_hash_matches_int(self):
        assert hash(Timestamp(7)) == hash(7)
        assert {Timestamp(7)} == {7}

    def test_arithmetic(self):
        assert (Timestamp(3) + 2) == Timestamp(5)
        assert Timestamp(5) - Timestamp(3) == 2
        assert Timestamp(5) - 1 == 4

    def test_next(self):
        assert Timestamp(0).next() == 1

    def test_int_and_index(self):
        assert int(Timestamp(9)) == 9
        assert list(range(3))[Timestamp(1)] == 1

    def test_repr(self):
        assert repr(Timestamp(4)) == "ts(4)"

    def test_comparison_with_unrelated_type(self):
        assert (Timestamp(1) == "x") is False

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_order_agrees_with_int(self, a, b):
        assert (Timestamp(a) < Timestamp(b)) == (a < b)
        assert (Timestamp(a) == Timestamp(b)) == (a == b)


class TestSentinels:
    def test_reprs(self):
        assert repr(LATEST) == "LATEST"
        assert repr(EARLIEST) == "EARLIEST"

    def test_identity_distinct(self):
        assert LATEST is not EARLIEST


class TestTsRange:
    def test_contains(self):
        r = TsRange(2, 5)
        assert 2 in r and 4 in r
        assert 5 not in r and 1 not in r
        assert Timestamp(3) in r

    def test_len_and_iter(self):
        r = TsRange(1, 4)
        assert len(r) == 3
        assert [int(t) for t in r] == [1, 2, 3]

    def test_empty(self):
        assert TsRange(3, 3).empty
        assert not TsRange(3, 4).empty

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            TsRange(5, 2)


class TestCorresponds:
    def test_equal_timestamps_correspond(self):
        assert corresponds(5, 5)
        assert corresponds(Timestamp(5), 5)

    def test_zero_threshold_strict(self):
        assert not corresponds(5, 6)

    def test_threshold_window(self):
        assert corresponds(5, 7, threshold=2)
        assert not corresponds(5, 8, threshold=2)

    def test_symmetric(self):
        assert corresponds(7, 5, threshold=2) == corresponds(5, 7, threshold=2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            corresponds(1, 1, threshold=-1)

    @given(st.integers(0, 1000), st.integers(0, 5))
    def test_reflexive(self, t, thr):
        assert corresponds(t, t, threshold=thr)
