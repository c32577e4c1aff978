"""Unit + property tests for the TWPP inversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import (
    TimestampSet,
    TwppPathTrace,
    trace_to_twpp,
    twpp_to_trace,
)
from repro.compact.format import encode_series


def ts(*entries):
    """A timestamp set from its (lo, hi, step) entries, unchecked."""
    return TimestampSet(entries=entries)


class TestPaperExample:
    def test_figure6_and_7(self):
        """main's compacted trace 1.2.2.2.2.2.6 inverts to
        {1 -> {-1}, 2 -> {2:-6}, 6 -> {-7}} (Figures 6-7)."""
        twpp = trace_to_twpp((1, 2, 2, 2, 2, 2, 6))
        assert dict(twpp.entries) == {
            1: ts((1, 1, 1)), 2: ts((2, 6, 1)), 6: ts((7, 7, 1))
        }
        stored = {b: encode_series(s) for b, s in twpp.entries}
        assert stored == {1: [-1], 2: [2, -6], 6: [-7]}

    def test_mapping_direction(self):
        """WPP maps T -> B; TWPP maps B -> P(T) (Section 2)."""
        twpp = trace_to_twpp((5, 7, 5, 7))
        assert dict(twpp.entries)[5].values() == [1, 3]
        assert dict(twpp.entries)[7].values() == [2, 4]

    def test_blocks_sorted(self):
        twpp = trace_to_twpp((9, 1, 5))
        assert [b for b, _ts in twpp.entries] == [1, 5, 9]

    def test_missing_block_raises(self):
        twpp = trace_to_twpp((1, 2))
        with pytest.raises(KeyError):
            dict(twpp.entries)[99]


class TestAccounting:
    def test_length_matches_trace(self):
        trace = (1, 2, 2, 3, 2, 1)
        twpp = trace_to_twpp(trace)
        assert sum(len(s) for _b, s in twpp.entries) == len(trace)

    def test_total_integers_and_entries(self):
        twpp = trace_to_twpp((1, 2, 2, 2, 2, 2, 6))
        stored = [encode_series(s) for _b, s in twpp.entries]
        assert sum(map(len, stored)) == 4  # -1, 2, -6, -7
        assert sum(s.slot_count() for _b, s in twpp.entries) == 3

    def test_hashable_for_interning(self):
        a = trace_to_twpp((1, 2, 1, 2))
        b = trace_to_twpp((1, 2, 1, 2))
        assert len({a, b}) == 1


class TestInversion:
    def test_empty_trace(self):
        assert twpp_to_trace(trace_to_twpp(())) == ()

    def test_gap_detected(self):
        bad = TwppPathTrace(entries=((1, ts((1, 1, 1))), (2, ts((3, 3, 1)))))
        with pytest.raises(ValueError):  # t=2 missing
            twpp_to_trace(bad)

    def test_duplicate_timestamp_detected(self):
        bad = TwppPathTrace(entries=((1, ts((1, 1, 1))), (2, ts((1, 1, 1)))))
        with pytest.raises(ValueError, match="twice"):
            twpp_to_trace(bad)

    def test_out_of_range_detected(self):
        bad = TwppPathTrace(entries=((1, ts((5, 5, 1))),))
        with pytest.raises(ValueError, match="out of range"):
            twpp_to_trace(bad)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1, ts((0, 2, 1))),), "out of range"),  # from timestamp 0
            (((1, ts((1, 2, 1))), (2, ts((5, 5, 1)))), "out of range"),
            # 1 and 3 by block 1, 3 again by block 2: position 2 is left
            (((1, ts((1, 3, 2))), (2, ts((3, 3, 1)))), "twice"),
            (((0, ts((1, 1, 1))),), "gap"),  # block 0: an unfilled position
            (((1, ts((1, 1 << 40, 1))),), "sanity bound"),  # before allocating
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
        for _block, block_ts in twpp.entries:
            seen.extend(block_ts)
        assert sorted(seen) == list(range(1, len(trace) + 1))
