"""LZW compression for the dynamic call graph.

The paper compresses the DCG with "Welch's variation of Ziv and
Lempel's adaptive dictionary based technique ... the LZW algorithm"
(Section 2, "Compacting the DCG").  This is a from-scratch LZW over
byte strings: codes start at 256 single-byte entries and grow until
:data:`MAX_CODES`, at which point the dictionary is frozen (a common
variant that keeps memory bounded on multi-megabyte inputs).  Codes are
serialized as unsigned varints, which approximates the variable-width
code packing of classic implementations while keeping the decoder
trivial.
"""

from __future__ import annotations

from typing import Dict, List

from ..trace.encoding import read_uvarint, write_uvarint

#: Dictionary ceiling (2^20 entries).  Frozen, not reset, past this.
MAX_CODES = 1 << 20


def lzw_compress(data: bytes) -> bytes:
    """Compress ``data``; returns the varint-packed code stream.

    A dictionary string is its prefix's code plus one byte, so the
    table is keyed by the int ``prefix_code << 8 | byte`` instead of by
    byte strings; single bytes are their own codes and need no entry.
    """
    if not data:
        return b""
    table: Dict[int, int] = {}
    next_code = 256
    out = bytearray()

    code = data[0]
    for byte in data[1:]:
        key = code << 8 | byte
        if key in table:
            code = table[key]
            continue
        write_uvarint(out, code)
        if next_code < MAX_CODES:
            table[key] = next_code
            next_code += 1
        code = byte
    write_uvarint(out, code)
    return bytes(out)


def lzw_decompress(data: bytes) -> bytes:
    """Inverse of :func:`lzw_compress`."""
    if not data:
        return b""
    table: List[bytes] = [bytes([i]) for i in range(256)]
    offset = 0
    code, offset = read_uvarint(data, offset)
    if code >= len(table):
        raise ValueError("corrupt LZW stream: bad first code")
    previous = table[code]
    out = bytearray(previous)

    while offset < len(data):
        code, offset = read_uvarint(data, offset)
        if code < len(table):
            entry = table[code]
        elif code == len(table):
            # The classic KwKwK case: the code being defined right now.
            entry = previous + previous[:1]
        else:
            raise ValueError(f"corrupt LZW stream: code {code} out of range")
        out.extend(entry)
        if len(table) < MAX_CODES:
            table.append(previous + entry[:1])
        previous = entry
    return bytes(out)
