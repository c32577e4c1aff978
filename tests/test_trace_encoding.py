"""Unit + property tests for the varint/zigzag codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.encoding import (
    decode_uvarints,
    encode_svarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    svarint_size,
    uvarint_size,
    write_string,
    write_uvarint,
    zigzag_encode,
)


def zigzag_decode(value):
    """Inverse of ``zigzag_encode``."""
    return (value >> 1) ^ -(value & 1)


def read_svarint(data, offset):
    value, offset = read_uvarint(data, offset)
    return zigzag_decode(value), offset


class TestUvarint:
    @given(st.integers(0, 2**63 - 1))
    def test_roundtrip(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        decoded, offset = read_uvarint(buf, 0)
        assert decoded == value
        assert offset == len(buf)

    def test_known_encodings(self):
        buf = bytearray()
        write_uvarint(buf, 0)
        assert bytes(buf) == b"\x00"
        buf = bytearray()
        write_uvarint(buf, 127)
        assert bytes(buf) == b"\x7f"
        buf = bytearray()
        write_uvarint(buf, 128)
        assert bytes(buf) == b"\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            read_uvarint(b"\x80", 0)

    def test_overlong_raises(self):
        with pytest.raises(ValueError, match="too long"):
            read_uvarint(b"\x80" * 10 + b"\x01", 0)

    @given(st.integers(0, 2**40))
    def test_size_matches_encoding(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        assert uvarint_size(value) == len(buf)


class TestZigzag:
    @given(st.integers(-(2**40), 2**40))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_small_values_interleave(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    @given(st.integers(-(2**40), 2**40))
    def test_svarint_roundtrip(self, value):
        buf = encode_svarints([value])
        decoded, offset = read_svarint(buf, 0)
        assert decoded == value and offset == len(buf)

    @given(st.integers(-(2**30), 2**30))
    def test_svarint_size(self, value):
        assert svarint_size(value) == len(encode_svarints([value]))


class TestLists:
    def test_sequential_decoding(self):
        buf = bytearray()
        write_uvarint(buf, 1)
        buf += encode_svarints([-5])
        write_uvarint(buf, 300)
        a, off = read_uvarint(buf, 0)
        b, off = read_svarint(buf, off)
        c, off = read_uvarint(buf, off)
        assert (a, b, c) == (1, -5, 300)
        assert off == len(buf)


class TestUint64Boundary:
    """The 2^63/2^64 edges: zigzag must not corrupt, decode must guard."""

    @pytest.mark.parametrize(
        "value",
        [2**62, 2**63 - 1, -(2**63), -(2**63) + 1, 2**63, -(2**63) - 1],
    )
    def test_zigzag_roundtrip_at_boundary(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_zigzag_min_int64_maps_to_max_uint64(self):
        # The historic bug: -(2**63) shifted into the sign bit and
        # collided with other values.  The mapping must stay bijective.
        assert zigzag_encode(-(2**63)) == 2**64 - 1
        assert zigzag_encode(2**63 - 1) == 2**64 - 2

    def test_uvarint_roundtrip_full_64_bits(self):
        for value in (2**63, 2**64 - 1):
            buf = bytearray()
            write_uvarint(buf, value)
            decoded, offset = read_uvarint(buf, 0)
            assert decoded == value and offset == len(buf)

    def test_uvarint_overflow_guard_is_symmetric(self):
        # 2**64 encodes to ten bytes whose final payload overflows: the
        # shift-based guard alone would accept it silently truncated.
        buf = bytearray()
        write_uvarint(buf, 2**64)
        with pytest.raises(ValueError, match="overflows 64 bits"):
            read_uvarint(bytes(buf), 0)

    def test_svarint_roundtrip_at_boundary(self):
        for value in (2**63 - 1, -(2**63)):
            buf = encode_svarints([value])
            decoded, offset = read_svarint(buf, 0)
            assert decoded == value and offset == len(buf)


def _scalar_uvarint_bytes(values):
    buf = bytearray()
    for value in values:
        write_uvarint(buf, value)
    return bytes(buf)


def _scalar_svarint_bytes(values):
    return _scalar_uvarint_bytes([zigzag_encode(v) for v in values])


# Mix of the distributions the fast paths specialize on: single-byte,
# two-byte, and arbitrarily wide values.
_uvals = st.one_of(
    st.integers(0, 127),
    st.integers(128, 0x3FFF),
    st.integers(0, 2**64 - 1),
)
_svals = st.one_of(
    st.integers(-64, 63),
    st.integers(-(2**13), 2**13 - 1),
    st.integers(-(2**63), 2**63 - 1),
)


class TestBulkCodecs:
    """Bulk encoders/decoders are byte-for-byte the scalar codec."""

    @given(st.lists(_uvals, max_size=300))
    def test_encode_uvarints_matches_scalar(self, values):
        assert encode_uvarints(values) == _scalar_uvarint_bytes(values)

    @given(st.lists(_uvals, max_size=300))
    def test_decode_uvarints_roundtrip(self, values):
        data = _scalar_uvarint_bytes(values)
        decoded, offset = decode_uvarints(data, 0, len(values))
        assert list(decoded) == values and offset == len(data)

    @given(st.lists(_svals, max_size=300))
    def test_encode_svarints_matches_scalar(self, values):
        assert encode_svarints(values) == _scalar_svarint_bytes(values)

    def test_decode_accepts_memoryview(self):
        values = [5, 300, 2**40, 0, 127, 128]
        data = _scalar_uvarint_bytes(values)
        decoded, offset = decode_uvarints(memoryview(data), 0, len(values))
        assert list(decoded) == values and offset == len(data)

    def test_decode_at_offset_mid_buffer(self):
        prefix = _scalar_uvarint_bytes([9, 9, 9])
        values = list(range(120, 140))  # straddles the 1/2-byte edge
        data = prefix + _scalar_uvarint_bytes(values)
        decoded, offset = decode_uvarints(data, len(prefix), len(values))
        assert list(decoded) == values and offset == len(data)

    def test_single_byte_run_fast_path(self):
        values = [7] * 10_000
        data = encode_uvarints(values)
        assert data == bytes([7]) * 10_000
        decoded, offset = decode_uvarints(data, 0, len(values))
        assert list(decoded) == values and offset == len(data)

    def test_two_byte_run_fast_path(self):
        values = [200] * 5_000  # exercises the uint16 pair decode
        data = encode_uvarints(values)
        decoded, offset = decode_uvarints(data, 0, len(values))
        assert list(decoded) == values and offset == len(data)

    def test_truncated_bulk_decode_raises(self):
        data = _scalar_uvarint_bytes([1, 2, 300])
        with pytest.raises(ValueError):
            decode_uvarints(data[:-1], 0, 3)

    def test_count_overruns_buffer_raises(self):
        data = _scalar_uvarint_bytes([1, 2, 3])
        with pytest.raises(ValueError):
            decode_uvarints(data, 0, 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarints([1, -2, 3])


class TestStrings:
    @given(st.text(max_size=200))
    def test_roundtrip(self, text):
        buf = bytearray()
        write_string(buf, text)
        decoded, offset = read_string(buf, 0)
        assert decoded == text and offset == len(buf)

    def test_truncated_string(self):
        buf = bytearray()
        write_string(buf, "hello")
        with pytest.raises(ValueError, match="truncated"):
            read_string(buf[:-2], 0)
