"""Unit + property tests for arithmetic-series timestamp compaction:
:class:`TimestampSet`'s run detection and the codec's signed entry
streams (:func:`encode_series` / :func:`decode_series`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import TimestampSet, TwppPathTrace
from repro.compact.format import (
    decode_body,
    decode_series,
    encode_body,
    encode_series,
    record_ints,
)
from repro.trace.encoding import encode_svarints, write_uvarint


def stream_of(values):
    """The signed entry stream the codec writes for ``values``."""
    return encode_series(TimestampSet.from_values(values))


def decode(stream):
    """Decode a signed entry stream through its on-disk zigzag form."""
    ints = record_ints(encode_svarints(stream))
    return decode_series(ints, 0, len(ints))


def oracle_compress(timestamps):
    """The greedy run detection the format was first written with:
    take the longest constant-stride run; emit it as a series when that
    saves space (stride 1 and length >= 2, or length >= 3), else emit
    one singleton."""
    n = len(timestamps)
    out = []
    i = 0
    while i < n:
        if i + 1 < n:
            step = timestamps[i + 1] - timestamps[i]
            j = i + 1
            while j + 1 < n and timestamps[j + 1] - timestamps[j] == step:
                j += 1
            length = j - i + 1
        else:
            step = 0
            length = 1
        if length >= 2 and step == 1:
            out.append(timestamps[i])
            out.append(-timestamps[i + length - 1])
            i += length
        elif length >= 3:
            out.append(timestamps[i])
            out.append(timestamps[i + length - 1])
            out.append(-step)
            i += length
        else:
            out.append(-timestamps[i])
            i += 1
    return out


def body_record(block, stream):
    """A one-block body record holding a raw signed stream."""
    buf = bytearray()
    write_uvarint(buf, 1)
    write_uvarint(buf, block)
    write_uvarint(buf, len(stream))
    buf += encode_svarints(stream)
    return bytes(buf)


class TestPaperExamples:
    def test_figure7_main(self):
        """{1 -> {-1}, 2 -> {2:-6}, 6 -> {-7}} from Figure 7."""
        assert stream_of([1]) == [-1]
        assert stream_of([2, 3, 4, 5, 6]) == [2, -6]
        assert stream_of([7]) == [-7]

    def test_stepped_series(self):
        assert stream_of([2, 4, 6, 8, 20]) == [2, 8, -2, -20]

    def test_entry_shapes(self):
        assert decode([-5]).entries == ((5, 5, 1),)
        assert decode([3, -9]).entries == ((3, 9, 1),)
        assert decode([4, 299, -5]).entries == ((4, 299, 5),)

    def test_sign_encodes_boundaries_without_extra_ints(self):
        # Three entries, six integers total -- no delimiters.
        stream = [1, -3, 10, 20, -5, -99]
        ts = decode(stream)
        assert ts.slot_count() == 3
        assert ts.values() == [1, 2, 3, 10, 15, 20, 99]
        assert encode_series(ts) == stream


class TestGreedyChoices:
    def test_pair_with_step_one_uses_range(self):
        assert stream_of([5, 6]) == [5, -6]

    def test_pair_with_large_step_uses_singletons(self):
        # l:h:s costs 3 ints; two singletons cost 2.
        assert stream_of([5, 50]) == [-5, -50]

    def test_triple_with_step_uses_series(self):
        assert stream_of([5, 50, 95]) == [5, 95, -45]

    def test_mixed(self):
        ts = [1, 2, 3, 10, 20, 30, 77]
        compact = TimestampSet.from_values(ts)
        assert compact.values() == ts
        assert compact.slot_count() == 3


class TestValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            TimestampSet.from_values([0, 1])
        with pytest.raises(ValueError, match="positive"):
            TimestampSet.from_values([-3])
        with pytest.raises(ValueError, match="positive"):
            decode([0, -1])

    def test_rejects_unsorted(self):
        """A stored set ascends; the codec rejects one that does not."""
        with pytest.raises(ValueError, match="increasing"):
            decode([-3, -2])
        with pytest.raises(ValueError, match="increasing"):
            decode([5, -9, -7])  # a singleton inside the series before it

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="increasing"):
            decode([-2, -2])

    def test_malformed_stream_open_entry(self):
        with pytest.raises(ValueError, match="mid-entry"):
            decode([3, 5])

    def test_malformed_stream_long_entry(self):
        with pytest.raises(ValueError, match="longer"):
            decode([3, 5, 7, -9])

    def test_malformed_decreasing_series(self):
        with pytest.raises(ValueError, match="series 9:3 is not increasing"):
            decode([9, -3])

    def test_malformed_step(self):
        with pytest.raises(ValueError, match="malformed"):
            decode([3, 10, -4])  # (10-3) % 4 != 0

    def test_step_one_in_three_ints_is_a_typed_error(self):
        """``l, h, -1`` reads as a valid series, but the encoder writes
        that series as ``l, -h``; accepting it would break
        ``encode(decode(b)) == b``."""
        with pytest.raises(ValueError, match="series 3:9:1 stored in 3"):
            decode([3, 9, -1])
        with pytest.raises(ValueError, match="3:9:1"):
            decode_body(record_ints(body_record(1, [3, 9, -1])), 0)


@st.composite
def timestamp_lists(draw):
    values = draw(
        st.sets(st.integers(1, 10_000), min_size=0, max_size=200)
    )
    return sorted(values)


class TestCodecProperties:
    @given(
        timestamp_lists(),
        st.lists(st.integers(-40, 40), max_size=10),
        st.integers(0, 300),
    )
    @settings(max_examples=400)
    def test_codec_matches_greedy_oracle_and_round_trips(
        self, ts, raw, block
    ):
        """The codec writes exactly the oracle's signed stream; every
        stream or body record the decoder accepts re-encodes to the
        same integers and bytes."""
        compact = TimestampSet.from_values(ts)
        assert encode_series(compact) == oracle_compress(ts)
        written = encode_body(TwppPathTrace(entries=((block, compact),)))
        body, end = decode_body(record_ints(written), 0)
        assert body.entries == ((block, compact),)
        assert encode_body(body) == written

        try:
            decoded = decode(raw)
        except ValueError:
            pass
        else:
            assert encode_series(decoded) == raw
        record = body_record(block, raw)
        ints = record_ints(record)
        try:
            body, end = decode_body(ints, 0)
        except ValueError:
            pass
        else:
            assert end == len(ints)
            assert encode_body(body) == record


class TestProperties:
    @given(timestamp_lists())
    @settings(max_examples=300)
    def test_roundtrip(self, ts):
        assert decode(stream_of(ts)).values() == ts

    @given(timestamp_lists())
    @settings(max_examples=200)
    def test_never_longer_than_input(self, ts):
        assert len(stream_of(ts)) <= max(len(ts), 0) or not ts

    @given(timestamp_lists())
    @settings(max_examples=200)
    def test_series_len_without_expansion(self, ts):
        assert len(decode(stream_of(ts))) == len(ts)

    @given(timestamp_lists(), st.integers(1, 10_000))
    @settings(max_examples=200)
    def test_contains_agrees_with_membership(self, ts, probe):
        compact = decode(stream_of(ts))
        assert (probe in compact) == (probe in set(ts))

    @given(timestamp_lists())
    @settings(max_examples=200)
    def test_contains_agrees_with_decompression_everywhere(self, ts):
        """The O(1)-per-entry check is exhaustively equivalent to
        expanding the set."""
        compact = decode(stream_of(ts))
        expanded = set(compact.values())
        for probe in range(0, (max(ts) if ts else 0) + 3):
            assert (probe in compact) == (probe in expanded)

    def test_contains_stops_at_first_later_entry(self):
        """Stepping inside a run is decided arithmetically, never by
        expanding the run."""
        # Entries: 10:20:5 then 100:110 (step 1).
        compact = decode([10, 20, -5, 100, -110])
        assert 15 in compact
        assert 12 not in compact  # in range, off-step
        assert 5 not in compact  # before every entry
        assert 50 not in compact  # between entries
        assert 110 in compact
        assert 111 not in compact

    @given(st.integers(1, 500), st.integers(1, 50), st.integers(2, 100))
    def test_perfect_series_costs_at_most_three(self, lo, step, count):
        ts = [lo + i * step for i in range(count)]
        stream = stream_of(ts)
        if step == 1:
            assert len(stream) == 2
        else:
            assert len(stream) == 3 if count >= 3 else len(stream) <= 2
