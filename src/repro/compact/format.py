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
    per-function sections, each:
        uvarint n_bodies, n_bodies body records   (encode_body)
        uvarint n_dicts, n_dicts dictionary records (encode_dictionary)
        uvarint n_pairs, 2 * n_pairs uvarints (body id, dictionary id)

Each function's section is self-contained: its unique compacted trace
bodies in TWPP form, its DBB dictionaries, and the (body, dictionary)
pairs its activations reference.  Extracting one function therefore
reads the header plus exactly one section -- the access-time win of
Tables 4 and 5 -- while the header's byte-offset index is the "header
in the compacted TWPP file" the paper describes.  This module writes
files and decodes headers and sections; sections and the DCG are read
from a file only through :class:`~repro.compact.qserve.MmapSource`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple, Union

from ..obs import MetricsRegistry
from ..trace.encoding import (
    TruncatedInput,
    decode_uvarints,
    encode_svarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from .dbb import DbbDictionary
from .pipeline import CompactedWpp, FunctionCompact
from .series import TimestampSet
from .twpp import TwppPathTrace

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


# ---------------------------------------------------------------------------
# records
#
# The one codec for the two records a section holds.  The corpus stores
# the same records as blobs (:mod:`repro.corpus.blobs`), and
# :class:`~repro.compact.pipeline.FunctionCompactor` counts their
# encoded lengths for Tables 2-3, so all three agree by construction.
# A section or blob is nothing but uvarints: :func:`record_ints` decodes
# all of them at once, and the record decoders walk that int list.


def encode_series(ts: TimestampSet) -> List[int]:
    """The signed integer stream one timestamp set is stored as.

    Entries cost 1, 2 or 3 integers and spend none on boundaries: the
    last integer of every entry is negated, so the decoder knows an
    entry ended when it reads a negative value (Figure 7: ``{1}`` is
    ``-1``, ``{2:6}`` is ``2, -6``, ``{3:9:3}`` is ``3, 9, -3``).
    """
    out: List[int] = []
    for lo, hi, step in ts.entries:
        if lo == hi:
            out.append(-lo)
        elif step == 1:
            out += (lo, -hi)
        else:
            out += (lo, hi, -step)
    return out


def decode_series(ints: List[int], start: int, end: int) -> TimestampSet:
    """Inverse of :func:`encode_series` over the zigzag uvarints
    ``ints[start:end]`` (as :func:`record_ints` leaves them), parsed
    straight into entries in one pass.

    A zigzag uvarint is negative iff it is odd.  Every malformed stream
    raises :class:`ValueError`, including the one valid-looking shape
    the encoder never writes (a step-1 series in three integers) and
    entries that do not ascend, so re-encoding a decoded set gives back
    its bytes.
    """
    entries: List[Tuple[int, int, int]] = []
    prev = 0
    i = start
    while i < end:
        u = ints[i]
        if u & 1:
            lo = hi = (u + 1) >> 1
            step = 1
            i += 1
        else:
            lo = u >> 1
            if i + 1 == end:
                break
            u = ints[i + 1]
            if u & 1:
                hi = (u + 1) >> 1
                if hi <= lo:
                    raise ValueError(f"series {lo}:{hi} is not increasing")
                step = 1
                i += 2
            else:
                hi = u >> 1
                if i + 2 == end:
                    break
                u = ints[i + 2]
                if not u & 1:
                    raise ValueError("entry longer than 3 integers")
                step = (u + 1) >> 1
                if hi <= lo or (hi - lo) % step:
                    raise ValueError(f"malformed series {lo}:{hi}:{step}")
                if step == 1:
                    raise ValueError(
                        f"series {lo}:{hi}:1 stored in 3 integers"
                    )
                i += 3
        if lo <= prev:
            raise ValueError(
                f"entry at {lo} is not above {prev}: timestamps must be"
                " positive and increasing"
            )
        entries.append((lo, hi, step))
        prev = hi
    if i < end:
        raise ValueError("entry stream ends mid-entry (no negative close)")
    return TimestampSet(entries=tuple(entries))


def encode_body(twpp: TwppPathTrace) -> bytes:
    """One unique TWPP body: uvarint block count, then per block its
    uvarint id, uvarint stream length and zigzag entry stream
    (:func:`encode_series`)."""
    buf = bytearray()
    write_uvarint(buf, len(twpp.entries))
    for block, ts in twpp.entries:
        stream = encode_series(ts)
        write_uvarint(buf, block)
        write_uvarint(buf, len(stream))
        buf += encode_svarints(stream)
    return bytes(buf)


def decode_body(ints: List[int], index: int) -> Tuple[TwppPathTrace, int]:
    """Inverse of :func:`encode_body` over a record's ints (see
    :func:`record_ints`) at ``index``; returns ``(body, next_index)``."""
    n_blocks, index = _read_count(ints, index, 2)
    entries = []
    for _ in range(n_blocks):
        try:
            block = ints[index]
            start = index + 2
            index = start + ints[index + 1]
        except IndexError:
            raise ValueError("body record truncated") from None
        if index > len(ints):
            raise ValueError("body record runs past its last int")
        entries.append((block, decode_series(ints, start, index)))
    return TwppPathTrace(entries=tuple(entries)), index


def encode_dictionary(dictionary: DbbDictionary) -> bytes:
    """One DBB dictionary: uvarint chain count, then per chain its
    uvarint length and uvarint block ids."""
    buf = bytearray()
    write_uvarint(buf, len(dictionary.chains))
    for chain in dictionary.chains:
        write_uvarint(buf, len(chain))
        buf += encode_uvarints(chain)
    return bytes(buf)


def decode_dictionary(
    ints: List[int], index: int
) -> Tuple[DbbDictionary, int]:
    """Inverse of :func:`encode_dictionary` over a record's ints at
    ``index``; returns ``(dictionary, next_index)``."""
    n_chains, index = _read_count(ints, index)
    chains = []
    try:
        for _ in range(n_chains):
            start = index + 1
            index = start + ints[index]
            chains.append(tuple(ints[start:index]))
    except IndexError:
        raise ValueError("dictionary record truncated") from None
    if index > len(ints):
        raise ValueError("dictionary record runs past its last int")
    return DbbDictionary(chains=tuple(chains)), index


#: Every byte that continues a varint; any other byte ends one.
_CONTINUATION_BYTES = bytes(range(0x80, 0x100))


def record_ints(data) -> List[int]:
    """Every uvarint of a section or record blob, in one bulk decode.

    A section (and a corpus record blob) is nothing but uvarints, so
    their count is the number of bytes below ``0x80``.  A varint cut
    off at the end, an overlong one, or one over 64 bits raises
    :class:`ValueError`.
    """
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)  # one copy up front so bulk decode scans raw bytes
    count = len(data.translate(None, _CONTINUATION_BYTES))
    ints, end = decode_uvarints(data, 0, count)
    if end != len(data):
        raise ValueError("truncated varint")
    return ints


def _read_count(
    ints: List[int], index: int, min_ints: int = 1
) -> Tuple[int, int]:
    """The count at ``ints[index]``, checked against the ints left after
    it (each counted element takes at least ``min_ints``); returns
    ``(count, index + 1)``."""
    if index >= len(ints):
        raise ValueError("record truncated before a count")
    count = ints[index]
    remaining = len(ints) - index - 1
    if count * min_ints > remaining:
        raise ValueError(
            f"corrupt count {count}: only {remaining} int(s) remain"
        )
    return count, index + 1


# ---------------------------------------------------------------------------
# serialization


def _serialize_section(fc: FunctionCompact) -> bytes:
    buf = bytearray()
    for records in fc.encoded_tables():
        write_uvarint(buf, len(records))
        for record in records:
            buf += record
    write_uvarint(buf, len(fc.pairs))
    flat_pairs: List[int] = []
    for body_id, dict_id in fc.pairs:
        flat_pairs.append(body_id)
        flat_pairs.append(dict_id)
    buf += encode_uvarints(flat_pairs)
    return bytes(buf)


def _parse_section(data, name: str, call_count: int) -> FunctionCompact:
    ints = record_ints(data)
    fc = FunctionCompact(name=name, call_count=call_count)
    n_bodies, index = _read_count(ints, 0)
    for _ in range(n_bodies):
        body, index = decode_body(ints, index)
        fc.twpp_table.append(body)
    n_dicts, index = _read_count(ints, index)
    for _ in range(n_dicts):
        dictionary, index = decode_dictionary(ints, index)
        fc.dict_table.append(dictionary)
    n_pairs, index = _read_count(ints, index, 2)
    flat = ints[index : index + 2 * n_pairs]
    index += 2 * n_pairs
    if n_pairs and (
        max(flat[0::2]) >= len(fc.twpp_table)
        or max(flat[1::2]) >= len(fc.dict_table)
    ):
        raise ValueError(
            f"section for {name!r} pairs an unknown body or dictionary"
        )
    fc.pairs.extend(zip(flat[0::2], flat[1::2]))
    if index != len(ints):
        raise ValueError(f"section for {name!r} has trailing bytes")
    return fc


def serialize_twpp(
    compacted: CompactedWpp, metrics: Optional[MetricsRegistry] = None
) -> bytes:
    """Serialize a compacted WPP to ``.twpp`` bytes: the header, the
    compressed DCG (:meth:`~repro.compact.pipeline.CompactedWpp.compressed_dcg`,
    so a compaction's DCG is compressed once) and the sections."""
    if metrics is None:
        metrics = MetricsRegistry()
    with metrics.timer("twpp.serialize"):
        functions = compacted.functions
        # Storage order: hottest functions first (paper: "the path
        # traces ... of the most frequently called function are stored
        # first").  ``functions`` are in original (DCG) index order.
        order = sorted(
            range(len(functions)), key=lambda i: (-functions[i].call_count, i)
        )
        sections = [_serialize_section(functions[idx]) for idx in order]
        dcg_raw_len, dcg_comp = compacted.compressed_dcg()
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
            metrics.observe("twpp.section_bytes", len(data))
        write_uvarint(header, dcg_raw_len)
        write_uvarint(header, len(dcg_comp))
        return b"".join([header, dcg_comp, *sections])


def write_twpp(
    compacted: CompactedWpp,
    path: PathLike,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write a ``.twpp`` file; returns the byte size written.

    The one writer of the format, for every route.  The bytes go to a
    temporary file beside ``path`` (named ``<name>.<random>.tmp``, so a
    store never lists it) that then replaces ``path`` in one rename: an
    engine that has the old file mapped keeps reading the old bytes, and
    a write that fails leaves the old file and no temporary behind.
    """
    if metrics is None:
        metrics = MetricsRegistry()
    data = serialize_twpp(compacted, metrics=metrics)
    with metrics.timer("twpp.write"):
        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    metrics.inc("twpp.bytes_written", len(data))
    return len(data)


# ---------------------------------------------------------------------------
# deserialization


#: How much of a file :func:`read_header` reads first; a header that
#: does not fit is read on in doubling steps.
_HEADER_READ = 1 << 16


def read_header(fh: BinaryIO) -> TwppHeader:
    """Parse the header of an open binary ``.twpp`` file (positioned at
    0): one chunk is read, and more only while the header runs past the
    bytes read so far.  Every fault raises :class:`ValueError`; one that
    more bytes cannot mend (a wrong magic, an overlong varint, a name
    that is not UTF-8, indices that are not a permutation) raises at
    once, without reading on."""
    data = fh.read(_HEADER_READ)
    while True:
        try:
            return _parse_header(data)
        except TruncatedInput:
            more = fh.read(len(data))
            if not more:
                raise
            data += more


def _parse_header(data) -> TwppHeader:
    """Parse a ``.twpp`` header from the file's leading bytes (``bytes``
    or the file's mapping) in one walk.  Raises
    :class:`~repro.trace.encoding.TruncatedInput` when the bytes end
    inside the header.  Entries are built one at a time, so a corrupt
    function count runs out of bytes before it can allocate more than
    the input holds."""
    if bytes(data[:4]) != MAGIC:
        raise ValueError("not a .twpp file")
    n_funcs, pos = read_uvarint(data, 4)
    entries: List[FunctionIndexEntry] = []
    for _ in range(n_funcs):
        name, pos = read_string(data, pos)
        call_count, pos = read_uvarint(data, pos)
        original_index, pos = read_uvarint(data, pos)
        offset, pos = read_uvarint(data, pos)
        length, pos = read_uvarint(data, pos)
        entries.append(
            FunctionIndexEntry(name, call_count, original_index, offset, length)
        )
    if sorted(e.original_index for e in entries) != list(range(n_funcs)):
        raise ValueError("original function indices are not 0..n-1")
    dcg_raw_len, pos = read_uvarint(data, pos)
    dcg_comp_len, dcg_start = read_uvarint(data, pos)
    return TwppHeader(
        entries=entries,
        dcg_raw_len=dcg_raw_len,
        dcg_comp_len=dcg_comp_len,
        dcg_start=dcg_start,
        sections_base=dcg_start + dcg_comp_len,
    )
