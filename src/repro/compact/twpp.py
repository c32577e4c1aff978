"""The timestamped WPP (TWPP) path-trace representation.

A path trace in WPP form maps timestamps (positions) to dynamic basic
blocks; the TWPP form inverts it, mapping each dynamic basic block to
the ordered set of timestamps at which it executed::

    WPP  trace 1.2.2.2.2.2.6  ==  {1->2, 2->2, 3->2, 4->2, 5->2, 6->2, 7->6}
    TWPP form                 ==  {1->{1}, 2->{2,3,4,5,6}, 6->{7}}

(Section 2, Figure 6.)  Data-flow analysis is carried out from the
perspective of basic blocks, so this is the form
:mod:`repro.analysis` consumes directly.  Timestamp sets are stored
compacted as signed arithmetic-series entry streams
(:mod:`repro.compact.series`), giving the compacted TWPP
``{1->{-1}, 2->{2:-6}, 6->{-7}}`` of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .series import (
    compress_series,
    decompress_series,
    entry_count,
    iter_entries,
    series_len,
)

PathTrace = Tuple[int, ...]


@dataclass(frozen=True)
class TwppPathTrace:
    """One path trace in compacted TWPP form.

    ``entries[b]`` is the signed entry stream of block ``b``'s
    timestamps.  Hashable (streams stored as tuples) so duplicate TWPP
    traces can be interned like any other table entry.
    """

    entries: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(
        default_factory=tuple
    )  # sorted (block id, signed stream) pairs

    def blocks(self) -> List[int]:
        """Dynamic basic block ids present, ascending."""
        return [b for b, _ in self.entries]

    def stream(self, block_id: int) -> Tuple[int, ...]:
        """Signed entry stream of one block (KeyError if absent)."""
        for b, s in self.entries:
            if b == block_id:
                return s
        raise KeyError(f"block {block_id} not in TWPP trace")

    def timestamps(self, block_id: int) -> List[int]:
        """Expanded timestamp list of one block."""
        return decompress_series(self.stream(block_id))

    def as_map(self) -> Dict[int, Tuple[int, ...]]:
        """block id -> signed entry stream."""
        return dict(self.entries)

    def length(self) -> int:
        """Number of timestamps == length of the underlying path trace."""
        return sum(series_len(s) for _, s in self.entries)

    def total_integers(self) -> int:
        """Signed integers stored across all blocks (size accounting)."""
        return sum(len(s) for _, s in self.entries)

    def total_entries(self) -> int:
        """Total series entries (timestamp-vector slots, Table 6)."""
        return sum(entry_count(s) for _, s in self.entries)


def trace_to_twpp(trace: Sequence[int]) -> TwppPathTrace:
    """Invert a (DBB-compacted) path trace into compacted TWPP form.

    Timestamps are 1-based positions, matching the paper's examples.
    """
    positions: Dict[int, List[int]] = {}
    for t, block in enumerate(trace, start=1):
        positions.setdefault(block, []).append(t)
    entries = tuple(
        (block, tuple(compress_series(ts)))
        for block, ts in sorted(positions.items())
    )
    return TwppPathTrace(entries=entries)


#: Upper bound on a single path trace's length; far above anything the
#: interpreter can produce (its fuel default is 50M events total), low
#: enough to stop corrupted timestamp streams from driving
#: multi-gigabyte allocations.
MAX_TRACE_LENGTH = 1 << 27


def twpp_to_trace(twpp: TwppPathTrace) -> PathTrace:
    """Invert TWPP form back to the positional path trace.

    Each stream's entries are read and checked once, then each entry
    fills its positions with one slice assignment.  The entries claim
    exactly ``total`` positions between them, so a trace with every
    position filled assigned none twice: a position left unfilled is
    a gap, which a position assigned twice always leaves behind.
    """
    spans = []
    total = 0
    for block, stream in twpp.entries:
        for lo, hi, step in iter_entries(stream):
            count = (hi - lo) // step + 1
            spans.append((block, lo, hi, step, count))
            total += count
    if total > MAX_TRACE_LENGTH:
        raise ValueError(f"TWPP trace length {total} exceeds sanity bound")
    out: List[int] = [0] * total
    for block, lo, hi, step, count in spans:
        if lo < 1 or hi > total:
            bad = lo if lo < 1 else hi
            raise ValueError(f"timestamp {bad} out of range 1..{total}")
        out[lo - 1 : hi : step] = [block] * count
    if 0 in out:
        raise ValueError(
            f"timestamp {out.index(0) + 1} never assigned: the trace has"
            " a gap, or assigns another timestamp twice"
        )
    return tuple(out)
