"""Unit + property tests for the TWPP inversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import TwppPathTrace, trace_to_twpp, twpp_to_trace


class TestPaperExample:
    def test_figure6_and_7(self):
        """main's compacted trace 1.2.2.2.2.2.6 inverts to
        {1 -> {-1}, 2 -> {2:-6}, 6 -> {-7}} (Figures 6-7)."""
        twpp = trace_to_twpp((1, 2, 2, 2, 2, 2, 6))
        assert twpp.as_map() == {1: (-1,), 2: (2, -6), 6: (-7,)}

    def test_mapping_direction(self):
        """WPP maps T -> B; TWPP maps B -> P(T) (Section 2)."""
        twpp = trace_to_twpp((5, 7, 5, 7))
        assert twpp.timestamps(5) == [1, 3]
        assert twpp.timestamps(7) == [2, 4]

    def test_blocks_sorted(self):
        twpp = trace_to_twpp((9, 1, 5))
        assert twpp.blocks() == [1, 5, 9]

    def test_missing_block_raises(self):
        twpp = trace_to_twpp((1, 2))
        with pytest.raises(KeyError):
            twpp.stream(99)


class TestAccounting:
    def test_length_matches_trace(self):
        trace = (1, 2, 2, 3, 2, 1)
        twpp = trace_to_twpp(trace)
        assert twpp.length() == len(trace)

    def test_total_integers_and_entries(self):
        twpp = trace_to_twpp((1, 2, 2, 2, 2, 2, 6))
        assert twpp.total_integers() == 4  # -1, 2, -6, -7
        assert twpp.total_entries() == 3

    def test_hashable_for_interning(self):
        a = trace_to_twpp((1, 2, 1, 2))
        b = trace_to_twpp((1, 2, 1, 2))
        assert len({a, b}) == 1


class TestInversion:
    def test_empty_trace(self):
        assert twpp_to_trace(trace_to_twpp(())) == ()

    def test_gap_detected(self):
        bad = TwppPathTrace(entries=((1, (-1,)), (2, (-3,))))  # t=2 missing
        with pytest.raises(ValueError):
            twpp_to_trace(bad)

    def test_duplicate_timestamp_detected(self):
        bad = TwppPathTrace(entries=((1, (-1,)), (2, (-1,))))
        with pytest.raises(ValueError, match="twice"):
            twpp_to_trace(bad)

    def test_out_of_range_detected(self):
        bad = TwppPathTrace(entries=((1, (-5,)),))
        with pytest.raises(ValueError, match="out of range"):
            twpp_to_trace(bad)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1, (0, -2)),), "out of range"),  # a series from timestamp 0
            (((1, (1, -2)), (2, (-5,))), "out of range"),
            # 1 and 3 by block 1, 3 again by block 2: position 2 is left
            (((1, (1, 3, -2)), (2, (-3,))), "twice"),
            (((0, (-1,)),), "gap"),  # block 0 marks an unfilled position
            (((1, (1, 1 << 40, -1)),), "sanity bound"),  # before allocating
        ],
    )
    def test_malformed_traces_raise_value_error(self, entries, message):
        with pytest.raises(ValueError, match=message):
            twpp_to_trace(TwppPathTrace(entries=entries))


class TestProperties:
    @given(
        st.lists(st.integers(1, 9), min_size=0, max_size=80).map(tuple)
    )
    @settings(max_examples=300)
    def test_roundtrip(self, trace):
        assert twpp_to_trace(trace_to_twpp(trace)) == trace

    @given(
        st.lists(st.integers(1, 5), min_size=1, max_size=60).map(tuple)
    )
    @settings(max_examples=200)
    def test_timestamps_partition_positions(self, trace):
        twpp = trace_to_twpp(trace)
        seen = []
        for block in twpp.blocks():
            seen.extend(twpp.timestamps(block))
        assert sorted(seen) == list(range(1, len(trace) + 1))
