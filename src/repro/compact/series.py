"""Timestamp sets, stored and manipulated as arithmetic series.

In TWPP form, a dynamic basic block that executes on successive loop
iterations collects timestamps forming an arithmetic series.  The paper
compacts such subsequences into entries of three shapes::

    l           a singleton
    l : h       the series l, l+1, ..., h          (step 1)
    l : h : s   the series l, l+s, l+2s, ..., h    (step s)

(Section 2, "Compacting TWPP path traces").  :class:`TimestampSet` is
that compacted form, the one in-memory timestamp-set type: a TWPP body
maps each block to one (:mod:`repro.compact.twpp`), and the on-disk
codec (:func:`repro.compact.format.encode_series` /
:func:`~repro.compact.format.decode_series`) writes its entries as a
signed integer stream whose negative integers close entries.

The demand-driven analysis of Section 4 propagates *timestamp vectors*
whose slots are these entries; "a simple increment/decrement resulting
in (3:21:2)/(1:19:2) corresponds to simultaneous forward/backward
traversal along 10 subpaths in the path trace".  The set therefore
offers shift, intersection, difference and union, all in the
compressed domain.  Shift and single-entry intersection act directly
on the series (intersecting two arithmetic progressions is a CRT
problem); difference splits an entry around a removed progression into
at most ``step``-residue fragments (prefix, the ``k - 1`` surviving
residue classes modulo ``k = S/s``, suffix); union adds the entries of
``other - self``.  No operation ever materializes individual
timestamps, so cost scales with the number of series entries, not with
set cardinality.  Most propagated vectors hold one position, so
``intersect`` and ``subtract`` (and through it ``union``) answer a
one-position operand ``((t, t, 1),)`` with a membership test instead.

Entries are kept sorted by ``(lo, hi, step)`` and pairwise disjoint *as
sets*; residue fragments may interleave in their ``[lo, hi]`` spans, so
ordered iteration merges per-entry streams when spans overlap.  A
lazily built interval index (sorted entry lows plus prefix-maximum
highs) lets membership tests and intersections skip non-overlapping
entries via bisection instead of scanning all pairs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, List, Optional, Tuple

Entry = Tuple[int, int, int]  # (lo, hi, step), lo <= hi, step >= 1


@dataclass(frozen=True)
class TimestampSet:
    """An immutable set of positive timestamps in compacted-series form."""

    entries: Tuple[Entry, ...] = ()

    # ---- constructors --------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "TimestampSet":
        """Build from positive ints (sorted and deduplicated first).

        Greedy maximal-run detection: at each position take the longest
        run of constant stride.  A run becomes one entry when it saves
        space (stride 1 and length >= 2, or any stride and length >= 3);
        otherwise its first value becomes a singleton.
        """
        ts = sorted(set(values))
        if not ts:
            return cls()
        if ts[0] <= 0:
            raise ValueError(f"timestamp {ts[0]} must be positive")
        n = len(ts)
        out: List[Entry] = []
        i = 0
        while i < n:
            lo = ts[i]
            if i + 1 < n:
                step = ts[i + 1] - lo
                j = i + 1
                while j + 1 < n and ts[j + 1] - ts[j] == step:
                    j += 1
                if step == 1 or j > i + 1:
                    out.append((lo, ts[j], step))
                    i = j + 1
                    continue
            out.append((lo, lo, 1))
            i += 1
        return cls(entries=tuple(out))

    @classmethod
    def single(cls, value: int) -> "TimestampSet":
        """A one-element set."""
        if value <= 0:
            raise ValueError("timestamps must be positive")
        return cls(entries=((value, value, 1),))

    @classmethod
    def empty(cls) -> "TimestampSet":
        return cls()

    # ---- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return sum((hi - lo) // step + 1 for lo, hi, step in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[int]:
        entries = self.entries
        for i in range(len(entries) - 1):
            if entries[i][1] >= entries[i + 1][0]:
                # Residue fragments interleave: merge per-entry streams.
                return iter(
                    heapq.merge(
                        *(range(lo, hi + 1, step) for lo, hi, step in entries)
                    )
                )
        return (
            v
            for lo, hi, step in entries
            for v in range(lo, hi + 1, step)
        )

    def __contains__(self, value: int) -> bool:
        los, max_hi = self._interval_index()
        j = bisect_right(los, value) - 1
        while j >= 0 and max_hi[j] >= value:
            lo, hi, step = self.entries[j]
            if lo <= value <= hi and (value - lo) % step == 0:
                return True
            j -= 1
        return False

    def values(self) -> List[int]:
        """Materialize as a sorted list."""
        return list(self)

    def min(self) -> int:
        """Smallest timestamp (ValueError on empty)."""
        if not self.entries:
            raise ValueError("empty timestamp set")
        return self.entries[0][0]

    def max(self) -> int:
        """Largest timestamp (ValueError on empty)."""
        if not self.entries:
            raise ValueError("empty timestamp set")
        return max(hi for _lo, hi, _step in self.entries)

    def slot_count(self) -> int:
        """Number of series entries -- the paper's vector width."""
        return len(self.entries)

    # ---- interval index ------------------------------------------------

    def _interval_index(self) -> Tuple[List[int], List[int]]:
        """``(entry lows, prefix-maximum highs)``, built once per instance.

        Entries are sorted by ``lo``; the prefix maximum of ``hi`` is
        non-decreasing, so both arrays bisect: entries possibly
        overlapping ``[span_lo, span_hi]`` lie between the first index
        whose prefix-max high reaches ``span_lo`` and the last index
        whose low does not exceed ``span_hi``.
        """
        cached = self.__dict__.get("_iv_index")
        if cached is None:
            los = [e[0] for e in self.entries]
            max_hi: List[int] = []
            running = 0
            for _lo, hi, _step in self.entries:
                running = hi if hi > running else running
                max_hi.append(running)
            cached = (los, max_hi)
            object.__setattr__(self, "_iv_index", cached)
        return cached

    def _overlapping(self, span_lo: int, span_hi: int) -> Iterator[Entry]:
        """Entries whose ``[lo, hi]`` span intersects ``[span_lo, span_hi]``."""
        los, max_hi = self._interval_index()
        start = bisect_left(max_hi, span_lo)
        end = bisect_right(los, span_hi)
        for entry in self.entries[start:end]:
            if entry[1] >= span_lo:
                yield entry

    # ---- collective operations ----------------------------------------

    def shift(self, delta: int) -> "TimestampSet":
        """Add ``delta`` to every timestamp, dropping non-positive results.

        This is the decrement/increment of query propagation; it acts
        entry-at-a-time, never expanding the series.
        """
        if delta == 0:
            return self
        out: List[Entry] = []
        for lo, hi, step in self.entries:
            lo += delta
            hi += delta
            if hi <= 0:
                continue
            if lo <= 0:
                # Clip to the smallest in-range member of the series.
                k = (1 - lo + step - 1) // step
                lo += k * step
                if lo > hi:
                    continue
            out.append((lo, hi, 1) if lo == hi else (lo, hi, step))
        out.sort()
        return TimestampSet(entries=tuple(out))

    def intersect(self, other: "TimestampSet") -> "TimestampSet":
        """Exact intersection.

        Each pair of span-overlapping entries intersects to at most one
        arithmetic progression (CRT); non-overlapping pairs are skipped
        through the interval index.
        """
        if not self.entries or not other.entries:
            return TimestampSet()
        # One-position operand: a membership test answers it.
        t = _lone(self.entries)
        if t is not None:
            return self if t in other else TimestampSet()
        t = _lone(other.entries)
        if t is not None:
            return other if t in self else TimestampSet()
        # Drive the loop from the narrower operand so index bisection
        # prunes the wider one.
        a_set, b_set = self, other
        if len(b_set.entries) < len(a_set.entries):
            a_set, b_set = b_set, a_set
        pieces: List[Entry] = []
        for a in a_set.entries:
            for b in b_set._overlapping(a[0], a[1]):
                piece = _intersect_entries(a, b)
                if piece is not None:
                    pieces.append(piece)
        return _from_pieces(pieces)

    def subtract(self, other: "TimestampSet") -> "TimestampSet":
        """Exact difference ``self - other``, computed entry-at-a-time.

        Each of ``self``'s entries is split around the progressions it
        shares with ``other`` (:func:`_split_entry`); an overlapping
        progression of combined step ``S = k * step`` removes one
        residue class modulo ``k``, leaving at most ``k + 1`` fragments
        -- never a materialized timestamp list.
        """
        if not other.entries or not self.entries:
            return self
        t = _lone(self.entries)
        if t is not None:
            return TimestampSet() if t in other else self
        t = _lone(other.entries)
        if t is not None and t not in self:
            return self
        out: List[Entry] = []
        changed = False
        for a in self.entries:
            fragments: List[Entry] = [a]
            for b in other._overlapping(a[0], a[1]):
                next_fragments: List[Entry] = []
                for fragment in fragments:
                    removed = _intersect_entries(fragment, b)
                    if removed is None:
                        next_fragments.append(fragment)
                    else:
                        changed = True
                        next_fragments.extend(_split_entry(fragment, removed))
                fragments = next_fragments
                if not fragments:
                    break
            out.extend(fragments)
        if not changed:
            return self
        return _from_pieces(out)

    def union(self, other: "TimestampSet") -> "TimestampSet":
        """Exact union: ``self`` plus the entries of ``other - self``."""
        if not other.entries:
            return self
        if not self.entries:
            return other
        # A one-position operand reaches ``subtract``'s membership
        # shortcut, so ``union`` needs none of its own.
        extra = other.subtract(self)
        if not extra.entries:
            return self
        return _from_pieces(list(self.entries) + list(extra.entries))

    def __str__(self) -> str:
        parts = []
        for lo, hi, step in self.entries:
            if lo == hi:
                parts.append(str(lo))
            elif step == 1:
                parts.append(f"{lo}:{hi}")
            else:
                parts.append(f"{lo}:{hi}:{step}")
        return "{" + ", ".join(parts) + "}"


def _lone(entries: Tuple[Entry, ...]) -> Optional[int]:
    """The member of a one-position set ``((t, t, 1),)``, else ``None``."""
    if len(entries) == 1:
        lo, hi, step = entries[0]
        if lo == hi and step == 1:
            return lo
    return None


def _intersect_entries(a: Entry, b: Entry) -> Optional[Entry]:
    """Intersect two arithmetic progressions into one (or None)."""
    lo_a, hi_a, s_a = a
    lo_b, hi_b, s_b = b
    lo = max(lo_a, lo_b)
    hi = min(hi_a, hi_b)
    if lo > hi:
        return None
    g = gcd(s_a, s_b)
    if (lo_a - lo_b) % g:
        return None  # residues incompatible: empty intersection
    step = s_a // g * s_b  # lcm
    # Find the smallest t >= lo with t ≡ lo_a (mod s_a) and t ≡ lo_b (mod s_b).
    t = _crt(lo_a, s_a, lo_b, s_b)
    if t < lo:
        t += ((lo - t) + step - 1) // step * step
    if t > hi:
        return None
    last = t + (hi - t) // step * step
    if t == last:
        return (t, t, 1)
    return (t, last, step)


def _split_entry(entry: Entry, removed: Entry) -> List[Entry]:
    """Fragments of ``entry`` after deleting ``removed`` (a sub-progression).

    ``removed`` must lie on ``entry``'s lattice -- its bounds members of
    the entry, its step a multiple of the entry's -- which is exactly
    what :func:`_intersect_entries` guarantees.  With ``k = S / s``
    (removed step over entry step) the survivors are the prefix before
    ``removed``, the ``k - 1`` residue classes modulo ``k`` strictly
    between its bounds, and the suffix after it: at most ``k + 1``
    fragments, each still an arithmetic progression.
    """
    lo, hi, s = entry
    qlo, qhi, q_step = removed
    # A one-member removal carries step 1 by normalization; its true
    # lattice step within the entry is irrelevant.
    out: List[Entry] = []
    if qlo > lo:
        pre_hi = qlo - s
        out.append((lo, pre_hi, 1) if lo == pre_hi else (lo, pre_hi, s))
    if qhi > qlo:
        k = q_step // s
        if k > 1:
            # Members of the entry strictly inside [qlo, qhi] sit at
            # offsets m*s for m in 1..M-1 (M = (qhi-qlo)/s, a multiple
            # of k); the removed ones are m ≡ 0 (mod k).
            span = (qhi - qlo) // s
            for r in range(1, k):
                first = qlo + r * s
                last = qlo + (span - k + r) * s
                out.append((first, first, 1) if first == last
                           else (first, last, q_step))
    if qhi < hi:
        suf_lo = qhi + s
        out.append((suf_lo, suf_lo, 1) if suf_lo == hi else (suf_lo, hi, s))
    return out


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """Smallest non-negative solution of t ≡ r1 (mod m1), t ≡ r2 (mod m2).

    Caller guarantees compatibility (``(r1 - r2) % gcd == 0``).
    """
    g, p, _q = _ext_gcd(m1, m2)
    lcm = m1 // g * m2
    diff = (r2 - r1) // g
    t = (r1 + m1 * diff * p) % lcm
    return t


def _ext_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y == g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def _from_pieces(pieces: List[Entry]) -> TimestampSet:
    """Canonicalize pairwise-disjoint entries into a TimestampSet.

    Pieces must be disjoint *as sets* (every caller -- CRT intersection,
    progression splitting, ``self + (other - self)`` union -- produces
    them that way); their spans may interleave.  Sorting plus
    adjacent-run merging is all that is needed: no materialization.
    """
    if not pieces:
        return TimestampSet()
    pieces = [
        (lo, hi, 1) if lo == hi else (lo, hi, step)
        for lo, hi, step in pieces
    ]
    pieces.sort()
    merged = _merge_adjacent(pieces)
    return TimestampSet(entries=tuple(merged))


def _merge_adjacent(pieces: List[Entry]) -> List[Entry]:
    """Merge consecutive entries that continue the same series."""
    out: List[Entry] = []
    for entry in pieces:
        if out:
            lo, hi, step = out[-1]
            e_lo, e_hi, e_step = entry
            same_step = step == e_step or hi == lo or e_lo == e_hi
            eff_step = e_step if hi == lo else step
            if same_step and e_lo - hi == eff_step:
                if e_lo == e_hi or e_step == eff_step:
                    out[-1] = (lo, e_hi, eff_step)
                    continue
        out.append(entry)
    return out
