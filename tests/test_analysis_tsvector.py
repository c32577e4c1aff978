"""Unit + property tests for collective timestamp-set manipulation
(:class:`repro.compact.series.TimestampSet`)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import TimestampSet
from repro.compact import series
from repro.compact.format import decode_series, record_ints
from repro.trace.encoding import encode_svarints


def ts(*values):
    return TimestampSet.from_values(values)


class TestConstruction:
    def test_from_values_sorts_and_dedups(self):
        s = TimestampSet.from_values([5, 1, 5, 3])
        assert s.values() == [1, 3, 5]

    def test_from_stream(self):
        """A stored signed stream decodes straight into the set type."""
        ints = record_ints(encode_svarints([2, -6]))
        s = decode_series(ints, 0, len(ints))
        assert s.values() == [2, 3, 4, 5, 6]
        assert s == TimestampSet.from_values(range(2, 7))

    def test_single(self):
        assert TimestampSet.single(9).values() == [9]
        with pytest.raises(ValueError):
            TimestampSet.single(0)

    def test_empty(self):
        s = TimestampSet.empty()
        assert not s and len(s) == 0

    def test_min_max(self):
        s = ts(4, 9, 2)
        assert s.min() == 2 and s.max() == 9
        with pytest.raises(ValueError):
            TimestampSet().min()


class TestPaperArithmetic:
    def test_collective_decrement(self):
        """(2:20:2) decremented is (1:19:2) -- 10 subpaths at once."""
        s = TimestampSet(entries=((2, 20, 2),))
        shifted = s.shift(-1)
        assert shifted.entries == ((1, 19, 2),)
        assert shifted.slot_count() == 1

    def test_shift_clips_at_one(self):
        s = TimestampSet(entries=((1, 9, 2),))  # 1,3,5,7,9
        shifted = s.shift(-2)
        assert shifted.values() == [1, 3, 5, 7]

    def test_figure9_intersections(self):
        block4 = TimestampSet(entries=((4, 299, 5),))
        block3 = TimestampSet(entries=((3, 198, 5),))
        block7 = TimestampSet(entries=((203, 498, 5),))
        q = block4.shift(-1)
        assert q.intersect(block3).entries == ((3, 198, 5),)
        assert q.intersect(block7).entries == ((203, 298, 5),)

    def test_crt_incompatible_is_empty(self):
        evens = TimestampSet(entries=((2, 100, 2),))
        odds = TimestampSet(entries=((1, 99, 2),))
        assert not evens.intersect(odds)

    def test_crt_mixed_steps(self):
        threes = TimestampSet(entries=((3, 300, 3),))
        fives = TimestampSet(entries=((5, 300, 5),))
        inter = threes.intersect(fives)
        assert inter.values() == list(range(15, 301, 15))
        assert inter.slot_count() == 1  # stays a single series


@st.composite
def value_sets(draw):
    return draw(st.sets(st.integers(1, 120), max_size=30))


@st.composite
def fragmented_sets(draw):
    """Sets whose residue fragments interleave: a run minus a series."""
    lo = draw(st.integers(1, 60))
    run = TimestampSet(entries=((lo, lo + draw(st.integers(0, 60)), 1),))
    cut_lo = draw(st.integers(1, 120))
    cut = TimestampSet(entries=(
        (cut_lo, cut_lo + draw(st.integers(1, 12)) * draw(st.integers(2, 5)),
         draw(st.integers(2, 5))),
    ))
    return run.subtract(cut).union(ts(*draw(value_sets())))


class TestSetSemantics:
    @given(value_sets(), value_sets())
    @settings(max_examples=300)
    def test_intersect(self, a, b):
        assert set(ts(*a).intersect(ts(*b))) == a & b

    @given(value_sets(), value_sets())
    @settings(max_examples=300)
    def test_union(self, a, b):
        assert set(ts(*a).union(ts(*b))) == a | b

    @given(value_sets(), value_sets())
    @settings(max_examples=300)
    def test_subtract(self, a, b):
        assert set(ts(*a).subtract(ts(*b))) == a - b

    @given(value_sets(), st.integers(-10, 10))
    @settings(max_examples=200)
    def test_shift(self, a, d):
        assert set(ts(*a).shift(d)) == {x + d for x in a if x + d > 0}

    @given(value_sets(), st.integers(1, 120), st.booleans())
    @settings(max_examples=300)
    def test_singleton_operands(self, a, t, left):
        """One-position operands, on either side, keep set semantics."""
        one, other = ts(t), ts(*a)
        x, y = (one, other) if left else (other, one)
        xs, ys = ({t}, a) if left else (a, {t})
        assert set(x.intersect(y)) == xs & ys
        assert set(x.subtract(y)) == xs - ys
        assert set(x.union(y)) == xs | ys

    @given(st.integers(1, 120), st.integers(-10, 10))
    @settings(max_examples=200)
    def test_singleton_shift(self, t, d):
        shifted = ts(t).shift(d)
        assert set(shifted) == ({t + d} if t + d > 0 else set())

    @given(value_sets(), st.integers(1, 120))
    @settings(max_examples=300)
    def test_one_position_results_are_canonical(self, a, t):
        """Any one-position result is the single entry ``(t, t, 1)``."""
        one, other = ts(t), ts(*a)
        results = [
            one.intersect(other), other.intersect(one),
            one.subtract(other), other.subtract(one),
            one.union(other), other.union(one),
            one.shift(3), other.shift(-5),
        ]
        for result in results:
            if len(result) == 1:
                (member,) = result.values()
                assert result.entries == ((member, member, 1),)

    @given(fragmented_sets(), st.integers(1, 130))
    @settings(max_examples=300)
    def test_one_position_entries_match_general_path(self, other, t):
        """The membership shortcut returns exactly the entries the
        entry-pair path computes, even around interleaved fragments."""
        one = ts(t)
        ops = [
            lambda: one.intersect(other), lambda: other.intersect(one),
            lambda: one.subtract(other), lambda: other.subtract(one),
            lambda: one.union(other), lambda: other.union(one),
        ]
        fast = [op().entries for op in ops]
        with mock.patch.object(series, "_lone", return_value=None):
            general = [op().entries for op in ops]
        assert fast == general

    def test_singleton_against_series_never_expands(self):
        """A member test against a 10-million-member series, not a scan."""
        series = TimestampSet(entries=((2, 20_000_000, 2),))
        assert series.intersect(ts(1_000_000)).entries == (
            (1_000_000, 1_000_000, 1),
        )
        assert not ts(1_000_001).intersect(series)
        assert series.union(ts(40)) is series
        assert ts(7).subtract(series) == ts(7)
        assert series.subtract(ts(9)) is series

    @given(value_sets())
    @settings(max_examples=200)
    def test_len_and_contains(self, a):
        s = ts(*a)
        assert len(s) == len(a)
        for probe in range(1, 130):
            assert (probe in s) == (probe in a)

    @given(value_sets())
    @settings(max_examples=200)
    def test_slot_count_never_exceeds_cardinality(self, a):
        s = ts(*a)
        assert s.slot_count() <= max(len(a), 0) or not a


class TestRendering:
    def test_str_forms(self):
        assert str(TimestampSet(entries=((1, 1, 1),))) == "{1}"
        assert str(TimestampSet(entries=((2, 6, 1),))) == "{2:6}"
        assert str(TimestampSet(entries=((4, 299, 5),))) == "{4:299:5}"
        assert str(TimestampSet()) == "{}"
