"""Variable-length integer encoding shared by all on-disk formats.

Unsigned values use LEB128 (7 bits per byte, high bit = continuation).
Signed values use zigzag mapping onto unsigned varints, which the
compacted TWPP format needs because series boundaries are encoded in the
*sign* of the last element of each entry (paper, Section 2, "Compacting
TWPP path traces").

Two codec tiers live here:

* the scalar functions (``write_uvarint``/``read_uvarint`` and signed
  variants) encode one value at a time and remain the reference
  implementation;
* the bulk functions (``encode_uvarints``/``decode_uvarints`` and
  ``encode_svarints``) process whole sequences.  Trace ingestion and the
  ``.twpp`` decode hot path are dominated by *runs of small values*
  (block ids, interleaved DCG pairs, zigzagged series deltas), so the
  bulk codecs special-case the single-byte (ASCII-range) case: encoding
  emits a whole run with one ``bytes()`` construction, decoding locates
  the next continuation byte with a C-speed ``translate``/``find`` scan
  and expands the run with one ``list.extend``.  Multi-byte values fall
  back to chunked big-int batching (one ``int.to_bytes`` per chunk).
  Both tiers produce byte-identical streams.

The decoders accept exactly the 64-bit range the event model can pack
(``array('Q')`` events, zigzagged 64-bit signed values): a varint that
decodes to ``>= 2**64`` is rejected as corrupt, symmetric with the
widest value an in-range encoder emits (10 bytes, final byte ``<= 1``).
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

#: translate() table mapping continuation bytes (high bit set) to 1.
_CONT_MARK = b"\x00" * 128 + b"\x01" * 128

#: Window size of the bulk decoder: one translate() scan per window
#: amortizes the continuation-bit search across all values inside it.
_CHUNK = 4096

#: Mark pattern of 32 consecutive two-byte varints ("continuation then
#: terminator"), the unit of the uint16 pair-decoding fast path.
_PAIR_PAT = b"\x01\x00" * 32

#: Precomputed encodings of every value below 2**14 (one or two bytes).
#: Built lazily on the first bulk encode; ~16K small bytes objects.
_ENC_SMALL: Tuple[bytes, ...] = ()


class TruncatedInput(ValueError):
    """The input ended inside a value: a longer prefix of the same
    stream could complete it (raised by :func:`read_uvarint` and
    :func:`read_string`; every other fault is a plain ``ValueError``)."""


def _build_enc_table() -> Tuple[bytes, ...]:
    global _ENC_SMALL
    table: List[bytes] = []
    for v in range(0x80):
        table.append(bytes((v,)))
    for v in range(0x80, 0x4000):
        table.append(bytes(((v & 0x7F) | 0x80, v >> 7)))
    _ENC_SMALL = tuple(table)
    return _ENC_SMALL


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint to ``buf``."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_uvarint(data, offset: int) -> Tuple[int, int]:
    """Read one unsigned varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  Values that cannot come from a
    64-bit-range encoder (more than 10 bytes, or a 10-byte encoding
    reaching ``2**64``) are rejected as corrupt.
    """
    result = 0
    shift = 0
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise TruncatedInput("truncated varint") from None
        offset += 1
        if byte & 0x80:
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")
        else:
            result |= byte << shift
            if result >> 64:
                raise ValueError("varint overflows 64 bits")
            return result, offset


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one (0,-1,1,-2,... -> 0,1,2,3,...).

    Pure arithmetic on Python's arbitrary-precision ints: no fixed-width
    ``>> 63`` trick, which would corrupt values ``>= 2**63``.
    """
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if value & 1:
        return -((value + 1) >> 1)
    return value >> 1


def write_svarint(buf: bytearray, value: int) -> None:
    """Append one signed (zigzag) varint to ``buf``."""
    write_uvarint(buf, zigzag_encode(value))


def read_svarint(data, offset: int) -> Tuple[int, int]:
    """Read one signed (zigzag) varint; returns ``(value, next_offset)``."""
    raw, offset = read_uvarint(data, offset)
    return zigzag_decode(raw), offset


# ---------------------------------------------------------------------------
# bulk codecs


def encode_uvarints(values: Sequence[int]) -> bytes:
    """Encode a sequence of unsigned varints; byte-identical to the
    scalar :func:`write_uvarint` applied in order.

    All-single-byte sequences become one ``bytes()`` construction; a
    sequence fitting two bytes per value is one C-level ``join`` over
    the precomputed small-value table.  Mixed sequences fall back to a
    table-assisted loop, with values ``>= 2**14`` encoded in place.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    if not values:
        return b""
    mn = min(values)
    mx = max(values)
    if mn >= 0:
        if mx < 0x80:
            return bytes(values)
        if mx < 0x4000:
            table = _ENC_SMALL or _build_enc_table()
            return b"".join(map(table.__getitem__, values))
    if mn < 0:
        raise ValueError(f"uvarint cannot encode negative value {mn}")
    table = _ENC_SMALL or _build_enc_table()
    out = bytearray()
    append = out.append
    for v in values:
        if v < 0x4000:
            out += table[v]
        else:
            while v >= 0x80:
                append((v & 0x7F) | 0x80)
                v >>= 7
            append(v)
    return bytes(out)


def decode_uvarints(data, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` unsigned varints starting at ``offset``.

    Returns ``(values, next_offset)``; byte-for-byte equivalent to
    ``count`` scalar :func:`read_uvarint` calls.  The input is scanned
    in windows: one ``translate`` marks every continuation byte, runs
    of single-byte varints are expanded with one ``list.extend``, runs
    of two-byte varints are decoded 32 at a time through ``struct``
    uint16 unpacking, and only irregular values fall back to the
    scalar bit loop.
    """
    check_count(count, data, offset)
    out: List[int] = []
    if not count:
        return out, offset
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    extend = out.extend
    append = out.append
    size = len(data)
    while count:
        base = offset
        span = size - base
        if span > _CHUNK:
            span = _CHUNK
        if span <= 0:
            raise ValueError("truncated varint")
        chunk = data[base : base + span]
        marked = chunk.translate(_CONT_MARK)
        pos = 0
        while count and pos < span:
            if marked[pos]:
                # Two-byte pair run: 32 varints per uint16 unpack.
                if (
                    count >= 32
                    and pos + 64 <= span
                    and marked[pos : pos + 64] == _PAIR_PAT
                ):
                    limit = span - pos
                    if limit > 2 * count:
                        limit = 2 * count
                    limit &= ~63
                    width = 64
                    while (
                        width + 64 <= limit
                        and marked[pos + width : pos + width + 64]
                        == _PAIR_PAT
                    ):
                        width += 64
                    words = struct.unpack_from(
                        "<%dH" % (width // 2), chunk, pos
                    )
                    extend([(w & 0x7F) | ((w >> 8) << 7) for w in words])
                    count -= width // 2
                    pos += width
                    continue
                # One irregular varint, decoded scalar-style.
                result = 0
                shift = 0
                cursor = base + pos
                while True:
                    try:
                        byte = data[cursor]
                    except IndexError:
                        raise ValueError("truncated varint") from None
                    cursor += 1
                    if byte & 0x80:
                        result |= (byte & 0x7F) << shift
                        shift += 7
                        if shift > 63:
                            raise ValueError("varint too long")
                    else:
                        result |= byte << shift
                        if result >> 64:
                            raise ValueError("varint overflows 64 bits")
                        break
                append(result)
                count -= 1
                pos = cursor - base
                continue
            nxt = marked.find(1, pos)
            if nxt < 0:
                nxt = span
            take = nxt - pos
            if take > count:
                take = count
            extend(chunk if not pos and take == span else chunk[pos : pos + take])
            pos += take
            count -= take
        offset = base + pos
    return out, offset


def encode_svarints(values: Sequence[int]) -> bytes:
    """Encode a sequence of signed (zigzag) varints, byte-identical to
    scalar :func:`write_svarint` calls."""
    return encode_uvarints(
        [(v << 1) if v >= 0 else ((-v) << 1) - 1 for v in values]
    )


def check_count(count: int, data, offset: int, min_bytes: int = 1) -> None:
    """Reject element counts that cannot fit in the remaining input.

    Every decoded element consumes at least ``min_bytes`` bytes, so a
    count exceeding the remaining length proves corruption.  Without
    this check a single flipped bit in a length field can drive a
    multi-gigabyte allocation before any per-element read fails.
    """
    remaining = len(data) - offset
    if count < 0 or count * min_bytes > remaining:
        raise ValueError(
            f"corrupt count {count}: only {remaining} byte(s) remain"
        )


def write_string(buf: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    raw = text.encode("utf-8")
    write_uvarint(buf, len(raw))
    buf.extend(raw)


def read_string(data, offset: int) -> Tuple[str, int]:
    """Read a length-prefixed UTF-8 string."""
    length, offset = read_uvarint(data, offset)
    raw = bytes(data[offset : offset + length])
    if len(raw) != length:
        raise TruncatedInput("truncated string")
    return raw.decode("utf-8"), offset + length


def uvarint_size(value: int) -> int:
    """Byte length of ``value`` as an unsigned varint (without encoding it)."""
    if value < 0:
        raise ValueError("negative value")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def svarint_size(value: int) -> int:
    """Byte length of ``value`` as a signed (zigzag) varint."""
    return uvarint_size(zigzag_encode(value))
