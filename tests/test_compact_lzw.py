"""Unit + property tests for the LZW codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import lzw, lzw_compress, lzw_decompress
from repro.trace.encoding import write_uvarint


def reference_compress(data: bytes) -> bytes:
    """The byte-string-keyed LZW encoder, kept as the output oracle.

    Reads ``lzw.MAX_CODES`` at call time so a patched ceiling applies
    to both encoders alike.
    """
    if not data:
        return b""
    table = {bytes([i]): i for i in range(256)}
    next_code = 256
    out = bytearray()
    current = bytes([data[0]])
    for byte in data[1:]:
        candidate = current + bytes([byte])
        if candidate in table:
            current = candidate
            continue
        write_uvarint(out, table[current])
        if next_code < lzw.MAX_CODES:
            table[candidate] = next_code
            next_code += 1
        current = bytes([byte])
    write_uvarint(out, table[current])
    return bytes(out)


class TestBasics:
    def test_empty(self):
        assert lzw_compress(b"") == b""
        assert lzw_decompress(b"") == b""

    def test_single_byte(self):
        assert lzw_decompress(lzw_compress(b"A")) == b"A"

    def test_repetitive_input_compresses(self):
        data = b"abcabcabc" * 200
        comp = lzw_compress(data)
        assert len(comp) < len(data) // 4
        assert lzw_decompress(comp) == data

    def test_kwkwk_case(self):
        """The classic LZW edge: a code used before it is fully defined."""
        data = b"ababababa"  # forces cScSc pattern
        assert lzw_decompress(lzw_compress(data)) == data
        data = b"aaaaaaa"
        assert lzw_decompress(lzw_compress(data)) == data

    def test_all_byte_values(self):
        data = bytes(range(256)) * 3
        assert lzw_decompress(lzw_compress(data)) == data

    def test_corrupt_stream_rejected(self):
        from repro.trace.encoding import write_uvarint

        buf = bytearray()
        write_uvarint(buf, 65)  # 'A'
        write_uvarint(buf, 99999)  # far beyond the dictionary
        with pytest.raises(ValueError, match="out of range"):
            lzw_decompress(bytes(buf))

    def test_bad_first_code(self):
        from repro.trace.encoding import write_uvarint

        buf = bytearray()
        write_uvarint(buf, 300)
        with pytest.raises(ValueError, match="first code"):
            lzw_decompress(bytes(buf))


class TestProperties:
    @given(st.binary(max_size=2000))
    @settings(max_examples=200)
    def test_roundtrip(self, data):
        assert lzw_decompress(lzw_compress(data)) == data

    @given(st.binary(min_size=1, max_size=50))
    def test_roundtrip_highly_repetitive(self, chunk):
        data = chunk * 50
        comp = lzw_compress(data)
        assert lzw_decompress(comp) == data
        assert len(comp) < len(data)

    @given(st.binary(max_size=3000))
    @settings(max_examples=200)
    def test_matches_reference_encoder(self, data):
        assert lzw_compress(data) == reference_compress(data)

    @given(st.binary(min_size=1, max_size=40), st.integers(1, 80))
    def test_matches_reference_on_repeats(self, chunk, times):
        """Long dictionary strings: codes well past one varint byte."""
        data = chunk * times
        assert lzw_compress(data) == reference_compress(data)

    def test_matches_reference_on_kwkwk(self):
        for data in (b"ababababa", b"aaaaaaa", b"\x00" * 1000):
            assert lzw_compress(data) == reference_compress(data)

    @pytest.mark.parametrize("ceiling", [256, 257, 300, 1000])
    def test_matches_reference_at_frozen_dictionary(
        self, monkeypatch, ceiling
    ):
        """Past ``MAX_CODES`` the dictionary freezes; both encoders
        must stop adding entries at the same code."""
        monkeypatch.setattr(lzw, "MAX_CODES", ceiling)
        data = bytes(range(256)) * 4 + b"abcabcabcab" * 300
        comp = lzw_compress(data)
        assert comp == reference_compress(data)
        assert lzw_decompress(comp) == data

    def test_dcg_like_input(self, small_partitioned):
        """The real use: the serialized DCG compresses and round-trips."""
        raw = small_partitioned.dcg.serialize()
        comp = lzw_compress(raw)
        assert lzw_decompress(comp) == raw
        assert len(comp) < len(raw)
