"""The timestamped WPP (TWPP) path-trace representation.

A path trace in WPP form maps timestamps (positions) to dynamic basic
blocks; the TWPP form inverts it, mapping each dynamic basic block to
the ordered set of timestamps at which it executed::

    WPP  trace 1.2.2.2.2.2.6  ==  {1->2, 2->2, 3->2, 4->2, 5->2, 6->2, 7->6}
    TWPP form                 ==  {1->{1}, 2->{2,3,4,5,6}, 6->{7}}

(Section 2, Figure 6.)  Each block's timestamps are held as one
:class:`~repro.compact.series.TimestampSet` of arithmetic-series
entries, ``{1->{1}, 2->{2:6}, 6->{7}}``; on disk the codec signs each
entry's last integer, giving the compacted TWPP
``{1->{-1}, 2->{2:-6}, 6->{-7}}`` of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .series import TimestampSet

PathTrace = Tuple[int, ...]


@dataclass(frozen=True)
class TwppPathTrace:
    """One path trace in compacted TWPP form.

    ``entries`` pairs each block with the timestamps it executed at.
    Hashable, so duplicate TWPP traces can be interned like any other
    table entry.
    """

    entries: Tuple[Tuple[int, TimestampSet], ...] = field(
        default_factory=tuple
    )  # sorted (block id, timestamp set) pairs


def trace_to_twpp(trace: Sequence[int]) -> TwppPathTrace:
    """Invert a (DBB-compacted) path trace into compacted TWPP form.

    Timestamps are 1-based positions, matching the paper's examples.
    """
    positions: Dict[int, List[int]] = {}
    for t, block in enumerate(trace, start=1):
        positions.setdefault(block, []).append(t)
    entries = tuple(
        (block, TimestampSet.from_values(ts))
        for block, ts in sorted(positions.items())
    )
    return TwppPathTrace(entries=entries)


#: Upper bound on a single path trace's length; far above anything the
#: interpreter can produce (its fuel default is 50M events total), low
#: enough to stop corrupted timestamp sets from driving
#: multi-gigabyte allocations.
MAX_TRACE_LENGTH = 1 << 27


def twpp_to_trace(twpp: TwppPathTrace) -> PathTrace:
    """Invert TWPP form back to the positional path trace.

    Each entry of each block's set fills its positions with one slice
    assignment.  The entries claim exactly ``total`` positions between
    them, so a trace with every position filled assigned none twice: a
    position left unfilled is a gap, which a position assigned twice
    always leaves behind.
    """
    spans = []
    total = 0
    for block, ts in twpp.entries:
        for lo, hi, step in ts.entries:
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
