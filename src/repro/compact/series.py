"""Arithmetic-series compaction of timestamp sequences.

In TWPP form, a dynamic basic block that executes on successive loop
iterations collects timestamps forming an arithmetic series.  The paper
compacts such subsequences into entries of three shapes::

    l           a singleton
    l : h       the series l, l+1, ..., h          (step 1)
    l : h : s   the series l, l+s, l+2s, ..., h    (step s)

and, crucially, spends *no* extra integers on entry boundaries: the last
number of every entry is stored negated, so the decoder knows an entry
ended when it reads a negative value (Section 2, "Compacting TWPP path
traces").  Entries therefore cost 1, 2 or 3 signed integers.

This module implements the codec over plain Python ints; the on-disk
format stores the signed stream with zigzag varints.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..trace.encoding import encode_svarints

#: An entry in decoded form: (lo, hi, step).  Singletons have lo == hi.
Entry = Tuple[int, int, int]


def encode_entry_stream(stream: Sequence[int]) -> bytes:
    """Serialize a signed entry stream as zigzag varint bytes.

    The on-disk form of one TWPP entry stream; bulk-encoded so a whole
    stream costs a handful of C-level calls rather than one Python loop
    iteration per integer.  Byte-identical to writing each value with
    :func:`repro.trace.encoding.write_svarint`.
    """
    return encode_svarints(stream)


def compress_series(timestamps: Sequence[int]) -> List[int]:
    """Encode a strictly increasing positive sequence into signed entries.

    Greedy maximal-run detection: at each position take the longest run
    of constant stride.  A run is emitted as a series when it saves
    space (stride 1 and length >= 2, or any stride and length >= 3);
    otherwise values are emitted as singletons.
    """
    n = len(timestamps)
    _validate_timestamps(timestamps)
    out: List[int] = []
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


def iter_entries(stream: Sequence[int]) -> Iterator[Entry]:
    """Yield (lo, hi, step) entries from a signed entry stream."""
    size = len(stream)
    i = 0
    while i < size:
        lo = stream[i]
        if lo < 0:
            yield (-lo, -lo, 1)
            i += 1
            continue
        if i + 1 == size:
            break
        hi = stream[i + 1]
        if hi < 0:
            hi = -hi
            if hi <= lo:
                raise ValueError(f"series {lo}:{hi} is not increasing")
            yield (lo, hi, 1)
            i += 2
            continue
        if i + 2 == size:
            break
        step = stream[i + 2]
        if step >= 0:
            raise ValueError("entry longer than 3 integers")
        step = -step
        if hi <= lo or (hi - lo) % step:
            raise ValueError(f"malformed series {lo}:{hi}:{step}")
        yield (lo, hi, step)
        i += 3
    if i < size:
        raise ValueError("entry stream ends mid-entry (no negative close)")


def decompress_series(stream: Sequence[int]) -> List[int]:
    """Expand a signed entry stream back to the full timestamp list."""
    out: List[int] = []
    for lo, hi, step in iter_entries(stream):
        out.extend(range(lo, hi + 1, step))
    return out


def entry_count(stream: Sequence[int]) -> int:
    """Number of entries in a signed entry stream.

    The demand-driven analysis propagates one timestamp-vector *slot*
    per entry (paper, Section 4.2), so this is the vector width.
    """
    return sum(1 for _ in iter_entries(stream))


def series_len(stream: Sequence[int]) -> int:
    """Number of timestamps represented (without expanding them)."""
    return sum((hi - lo) // step + 1 for lo, hi, step in iter_entries(stream))


def series_contains(stream: Sequence[int], value: int) -> bool:
    """Membership test without expansion.

    Each entry is decided with O(1) arithmetic -- ``value`` lies in the
    series ``lo : hi : step`` iff ``lo <= value <= hi`` and ``value``
    is congruent to ``lo`` modulo ``step`` -- so no run is ever
    expanded.  Streams produced by :func:`compress_series` encode a
    strictly increasing sequence, so entries appear in ascending order
    and the scan stops at the first entry starting past ``value``.
    """
    for lo, hi, step in iter_entries(stream):
        if value < lo:
            return False
        if value <= hi and (value - lo) % step == 0:
            return True
    return False


def _validate_timestamps(timestamps: Sequence[int]) -> None:
    prev = 0
    for t in timestamps:
        if t <= 0:
            raise ValueError(f"timestamp {t} must be positive")
        if t <= prev:
            raise ValueError("timestamps must be strictly increasing")
        prev = t
