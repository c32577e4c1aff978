"""The indexed ``.twpp`` on-disk format.

Layout::

    magic b"TWPP"
    uvarint n_funcs
    per function, in storage order (most-called first, as the paper
    prescribes for access locality):
        string  name
        uvarint call count
        uvarint original function index (the DCG's index space)
        uvarint section offset   (relative to the sections base)
        uvarint section length
    uvarint raw DCG length, uvarint compressed DCG length, LZW bytes
    per-function sections

Each function's section is self-contained: its unique compacted trace
bodies in TWPP form, its DBB dictionaries, and the (body, dictionary)
pairs its activations reference.  Extracting one function therefore
reads the header plus exactly one section -- the access-time win of
Tables 4 and 5 -- while the header's byte-offset index is the "header
in the compacted TWPP file" the paper describes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..trace.dcg import DynamicCallGraph
from ..trace.encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from .dbb import DbbDictionary
from .lzw import lzw_compress, lzw_decompress
from .pipeline import CompactedWpp, FunctionCompact
from .series import decode_entry_stream, encode_entry_stream
from .twpp import TwppPathTrace, twpp_to_trace

MAGIC = b"TWPP"

PathLike = Union[str, "os.PathLike[str]"]


@dataclass(frozen=True)
class FunctionIndexEntry:
    """One row of the header index."""

    name: str
    call_count: int
    original_index: int
    offset: int
    length: int


@dataclass
class TwppHeader:
    """Parsed header: the function index plus DCG section bounds."""

    entries: List[FunctionIndexEntry]
    dcg_raw_len: int
    dcg_comp_len: int
    dcg_start: int  # absolute file offset of the compressed DCG bytes
    sections_base: int  # absolute file offset of the first section

    def entry(self, name: str) -> FunctionIndexEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"function {name!r} not in .twpp index")


# ---------------------------------------------------------------------------
# serialization


def _serialize_section(fc: FunctionCompact) -> bytes:
    buf = bytearray()
    write_uvarint(buf, len(fc.twpp_table))
    for twpp in fc.twpp_table:
        write_uvarint(buf, len(twpp.entries))
        for block, stream in twpp.entries:
            write_uvarint(buf, block)
            write_uvarint(buf, len(stream))
            buf += encode_entry_stream(stream)
    write_uvarint(buf, len(fc.dict_table))
    for dictionary in fc.dict_table:
        write_uvarint(buf, len(dictionary.chains))
        for chain in dictionary.chains:
            write_uvarint(buf, len(chain))
            buf += encode_uvarints(chain)
    write_uvarint(buf, len(fc.pairs))
    flat_pairs: List[int] = []
    for body_id, dict_id in fc.pairs:
        flat_pairs.append(body_id)
        flat_pairs.append(dict_id)
    buf += encode_uvarints(flat_pairs)
    return bytes(buf)


def _parse_section(data, name: str, call_count: int) -> FunctionCompact:
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)  # one copy up front so bulk decode scans raw bytes
    fc = FunctionCompact(name=name, call_count=call_count)
    offset = 0
    n_bodies, offset = read_uvarint(data, offset)
    check_count(n_bodies, data, offset)
    for _ in range(n_bodies):
        n_blocks, offset = read_uvarint(data, offset)
        check_count(n_blocks, data, offset)
        entries = []
        for _ in range(n_blocks):
            block, offset = read_uvarint(data, offset)
            stream_len, offset = read_uvarint(data, offset)
            stream, offset = decode_entry_stream(data, offset, stream_len)
            entries.append((block, tuple(stream)))
        twpp = TwppPathTrace(entries=tuple(entries))
        fc.twpp_table.append(twpp)
        fc.trace_table.append(twpp_to_trace(twpp))
    n_dicts, offset = read_uvarint(data, offset)
    check_count(n_dicts, data, offset)
    for _ in range(n_dicts):
        n_chains, offset = read_uvarint(data, offset)
        check_count(n_chains, data, offset)
        chains = []
        for _ in range(n_chains):
            chain_len, offset = read_uvarint(data, offset)
            chain, offset = decode_uvarints(data, offset, chain_len)
            chains.append(tuple(chain))
        fc.dict_table.append(DbbDictionary(chains=tuple(chains)))
    n_pairs, offset = read_uvarint(data, offset)
    check_count(n_pairs, data, offset, min_bytes=2)
    flat, offset = decode_uvarints(data, offset, 2 * n_pairs)
    if n_pairs and (
        max(flat[0::2]) >= len(fc.trace_table)
        or max(flat[1::2]) >= len(fc.dict_table)
    ):
        raise ValueError(
            f"section for {name!r} pairs an unknown body or dictionary"
        )
    fc.pairs.extend(zip(flat[0::2], flat[1::2]))
    if offset != len(data):
        raise ValueError(f"section for {name!r} has trailing bytes")
    return fc


def twpp_chunks(
    functions: List[FunctionCompact], dcg_raw: bytes, dcg_comp: bytes
) -> List[bytes]:
    """Lay a ``.twpp`` out as ``[header, compressed DCG, *sections]``.

    The one writer of the file layout: both the two-phase route
    (:func:`serialize_twpp`) and the streaming route concatenate these
    chunks.  ``functions`` are in original (DCG) index order;
    ``dcg_comp`` is ``lzw_compress(dcg_raw)``, passed in so a caller
    that already compressed the DCG for its size accounting does not
    compress it again.
    """
    # Storage order: hottest functions first (paper: "the path traces
    # ... of the most frequently called function are stored first").
    order = sorted(
        range(len(functions)), key=lambda i: (-functions[i].call_count, i)
    )
    sections = [_serialize_section(functions[idx]) for idx in order]
    header = bytearray(MAGIC)
    write_uvarint(header, len(order))
    cursor = 0
    for idx, data in zip(order, sections):
        fc = functions[idx]
        write_string(header, fc.name)
        write_uvarint(header, fc.call_count)
        write_uvarint(header, idx)
        write_uvarint(header, cursor)
        write_uvarint(header, len(data))
        cursor += len(data)
    write_uvarint(header, len(dcg_raw))
    write_uvarint(header, len(dcg_comp))
    return [bytes(header), dcg_comp, *sections]


def serialize_twpp(
    compacted: CompactedWpp, metrics: Optional[MetricsRegistry] = None
) -> bytes:
    """Serialize a compacted WPP to ``.twpp`` bytes."""
    if metrics is None:
        metrics = MetricsRegistry()
    with metrics.timer("twpp.serialize"):
        dcg_raw = compacted.dcg.serialize()
        chunks = twpp_chunks(
            compacted.functions, dcg_raw, lzw_compress(dcg_raw)
        )
        for data in chunks[2:]:
            metrics.observe("twpp.section_bytes", len(data))
        return b"".join(chunks)


def write_twpp(
    compacted: CompactedWpp,
    path: PathLike,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write a ``.twpp`` file; returns the byte size written."""
    if metrics is None:
        metrics = MetricsRegistry()
    data = serialize_twpp(compacted, metrics=metrics)
    with metrics.timer("twpp.write"):
        with open(path, "wb") as fh:
            fh.write(data)
    metrics.inc("twpp.bytes_written", len(data))
    return len(data)


# ---------------------------------------------------------------------------
# deserialization


def _read_uvarint_stream(fh: BinaryIO) -> int:
    result = 0
    shift = 0
    while True:
        raw = fh.read(1)
        if not raw:
            raise ValueError("truncated varint in .twpp header")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def _read_string_stream(fh: BinaryIO) -> str:
    length = _read_uvarint_stream(fh)
    raw = fh.read(length)
    if len(raw) != length:
        raise ValueError("truncated string in .twpp header")
    return raw.decode("utf-8")


def read_header(fh: BinaryIO) -> TwppHeader:
    """Parse the header of an open ``.twpp`` file (positioned at 0)."""
    if fh.read(4) != MAGIC:
        raise ValueError("not a .twpp file")
    n_funcs = _read_uvarint_stream(fh)
    entries: List[FunctionIndexEntry] = []
    for _ in range(n_funcs):
        name = _read_string_stream(fh)
        call_count = _read_uvarint_stream(fh)
        original_index = _read_uvarint_stream(fh)
        offset = _read_uvarint_stream(fh)
        length = _read_uvarint_stream(fh)
        entries.append(
            FunctionIndexEntry(name, call_count, original_index, offset, length)
        )
    if sorted(e.original_index for e in entries) != list(range(n_funcs)):
        raise ValueError("original function indices are not 0..n-1")
    dcg_raw_len = _read_uvarint_stream(fh)
    dcg_comp_len = _read_uvarint_stream(fh)
    dcg_start = fh.tell()
    sections_base = dcg_start + dcg_comp_len
    return TwppHeader(
        entries=entries,
        dcg_raw_len=dcg_raw_len,
        dcg_comp_len=dcg_comp_len,
        dcg_start=dcg_start,
        sections_base=sections_base,
    )


def extract_function(path: PathLike, name: str) -> FunctionCompact:
    """Read one function's compacted record via the index.

    This is the operation Table 4 (column C) and Table 5 time: parse
    the header, seek, read one section.  The rest of the file is never
    touched.
    """
    with open(path, "rb") as fh:
        header = read_header(fh)
        entry = header.entry(name)
        fh.seek(header.sections_base + entry.offset)
        data = fh.read(entry.length)
    if len(data) != entry.length:
        raise ValueError(f"truncated section for {name!r}")
    return _parse_section(data, entry.name, entry.call_count)


def read_twpp(path: PathLike) -> CompactedWpp:
    """Load an entire ``.twpp`` file back into memory."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        fh.seek(header.dcg_start)
        dcg_comp = fh.read(header.dcg_comp_len)
        functions_by_original: Dict[int, FunctionCompact] = {}
        for entry in header.entries:
            fh.seek(header.sections_base + entry.offset)
            data = fh.read(entry.length)
            functions_by_original[entry.original_index] = _parse_section(
                data, entry.name, entry.call_count
            )

    dcg_raw = lzw_decompress(dcg_comp)
    if len(dcg_raw) != header.dcg_raw_len:
        raise ValueError("DCG length mismatch after LZW decompression")
    dcg = DynamicCallGraph.deserialize(dcg_raw)

    n = len(header.entries)
    functions = [functions_by_original[i] for i in range(n)]
    return CompactedWpp(
        func_names=[fc.name for fc in functions],
        functions=functions,
        dcg=dcg,
    )
