"""The uncompacted ``.wpp`` on-disk format.

Layout::

    magic   b"WPP1"
    uvarint n_funcs, then n_funcs length-prefixed UTF-8 names
    uvarint n_events
    n_events packed-event uvarints (see repro.trace.wpp)

This format exists to make the paper's *access-time* comparison honest
(Table 4, column U): extracting one function's path traces from it
requires scanning the entire file, exactly as with a raw linear WPP.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import BinaryIO, Iterator, List, Tuple, Union

from .encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_string,
    read_uvarint,
    write_string,
    write_uvarint,
)
from .wpp import BLOCK, ENTER, LEAVE, WppTrace

MAGIC = b"WPP1"

PathLike = Union[str, "os.PathLike[str]"]


def write_wpp(trace: WppTrace, path: PathLike) -> int:
    """Write a trace to ``path``; returns the byte size written."""
    buf = bytearray()
    buf.extend(MAGIC)
    write_uvarint(buf, len(trace.func_names))
    for name in trace.func_names:
        write_string(buf, name)
    write_uvarint(buf, len(trace.events))
    buf += encode_uvarints(trace.events)
    data = bytes(buf)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def wpp_file_size(trace: WppTrace) -> int:
    """Serialized ``.wpp`` size without touching the filesystem."""
    from .encoding import uvarint_size

    size = len(MAGIC)
    size += uvarint_size(len(trace.func_names))
    for name in trace.func_names:
        raw = name.encode("utf-8")
        size += uvarint_size(len(raw)) + len(raw)
    size += uvarint_size(len(trace.events))
    for packed in trace.events:
        size += uvarint_size(packed)
    return size


def _read_file(path: PathLike) -> Tuple[List[str], List[int]]:
    """The function names and packed events of a ``.wpp`` file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not a .wpp file")
    offset = 4
    n_funcs, offset = read_uvarint(data, offset)
    check_count(n_funcs, data, offset)
    names: List[str] = []
    for _ in range(n_funcs):
        name, offset = read_string(data, offset)
        names.append(name)
    n_events, offset = read_uvarint(data, offset)
    check_count(n_events, data, offset)
    values, offset = decode_uvarints(data, offset, n_events)
    return names, values


def read_wpp(path: PathLike) -> WppTrace:
    """Read a full ``.wpp`` file back into memory."""
    names, values = _read_file(path)
    return WppTrace(func_names=names, events=array("Q", values))


def scan_function_traces(
    path: PathLike, func_name: str
) -> List[Tuple[int, ...]]:
    """Extract every path trace of ``func_name`` from an uncompacted file.

    This is the baseline extraction the paper times in Table 4's column
    U: the whole file must be decoded because activations of the target
    function are scattered through the stream.  Returns one trace per
    activation, in activation order (duplicates included -- the raw file
    has no dedup).
    """
    names, events = _read_file(path)
    try:
        target = names.index(func_name)
    except ValueError:
        return []
    results: List[Tuple[int, ...]] = []
    # Stack holds, per open activation, either a block list (target
    # function) or None (any other function).
    stack: List[object] = []
    for packed in events:
        kind = packed & 0x3
        arg = packed >> 2
        if kind == ENTER:
            stack.append([] if arg == target else None)
        elif kind == BLOCK:
            top = stack[-1]
            if top is not None:
                top.append(arg)  # type: ignore[union-attr]
        elif kind == LEAVE:
            top = stack.pop()
            if top is not None:
                results.append(tuple(top))  # type: ignore[arg-type]
    return results
