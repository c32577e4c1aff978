"""Property tests for the compressed-domain series kernels.

The seed's property suite (``test_analysis_tsvector.py``) drives the
set operations with small dense value sets, which exercises the
normalized single-step entries almost exclusively.  These tests build
*series* -- unions of random ``(lo, hi, step)`` progressions -- so the
progression-splitting subtract/union kernels and the interval index
see multi-entry, mixed-step, interleaved-span inputs.  Every operation
must agree with Python-set semantics, and the compressed kernels must
never materialize members (pinned by a >10^7-member timing test).
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.series import TimestampSet


@st.composite
def progressions(draw):
    lo = draw(st.integers(1, 400))
    step = draw(st.integers(1, 12))
    count = draw(st.integers(1, 40))
    if count == 1:
        step = 1  # singleton entries are normalized to step 1
    return (lo, lo + step * (count - 1), step)


def from_progressions(parts) -> TimestampSet:
    out = TimestampSet()
    for lo, hi, step in parts:
        out = out.union(TimestampSet(entries=((lo, hi, step),)))
    return out


@st.composite
def series(draw):
    parts = draw(st.lists(progressions(), min_size=0, max_size=5))
    members = set()
    for lo, hi, step in parts:
        members.update(range(lo, hi + 1, step))
    return from_progressions(parts), members


def check_invariants(s: TimestampSet) -> None:
    """The representation invariants every kernel must preserve."""
    values = list(s)
    assert values == sorted(values), "iteration must be ascending"
    assert len(values) == len(set(values)), "entries must be disjoint"
    assert len(s) == len(values)
    for lo, hi, step in s.entries:
        assert 1 <= lo <= hi
        assert step >= 1
        assert lo != hi or step == 1, "singletons must normalize to step 1"
        assert (hi - lo) % step == 0


class TestSeriesSemantics:
    @given(series(), series())
    @settings(max_examples=250, deadline=None)
    def test_union(self, a, b):
        sa, va = a
        sb, vb = b
        out = sa.union(sb)
        assert set(out) == va | vb
        check_invariants(out)

    @given(series(), series())
    @settings(max_examples=250, deadline=None)
    def test_subtract(self, a, b):
        sa, va = a
        sb, vb = b
        out = sa.subtract(sb)
        assert set(out) == va - vb
        check_invariants(out)

    @given(series(), series())
    @settings(max_examples=250, deadline=None)
    def test_intersect(self, a, b):
        sa, va = a
        sb, vb = b
        out = sa.intersect(sb)
        assert set(out) == va & vb
        check_invariants(out)

    @given(series(), st.integers(-20, 20))
    @settings(max_examples=150, deadline=None)
    def test_shift(self, a, d):
        sa, va = a
        out = sa.shift(d)
        assert set(out) == {v + d for v in va if v + d > 0}
        check_invariants(out)

    @given(series())
    @settings(max_examples=150, deadline=None)
    def test_contains_via_interval_index(self, a):
        sa, va = a
        lo = min(va) - 2 if va else 0
        hi = max(va) + 2 if va else 5
        for probe in range(max(1, lo), hi + 1):
            assert (probe in sa) == (probe in va)

    @given(series(), series(), series())
    @settings(max_examples=100, deadline=None)
    def test_chained_mixed_operations(self, a, b, c):
        sa, va = a
        sb, vb = b
        sc, vc = c
        out = sa.union(sb).subtract(sc).intersect(sa.union(sc))
        ref = ((va | vb) - vc) & (va | vc)
        assert set(out) == ref
        check_invariants(out)


class TestNoMaterialization:
    """Acceptance criterion: kernels on >10^7-member series in <100 ms.

    A single ``range()`` expansion anywhere in subtract/union/
    ``_from_pieces`` would take seconds on these inputs; the compressed
    kernels touch only entry tuples.
    """

    def test_huge_series_subtract_union_intersect(self):
        big = TimestampSet(entries=((1, 30_000_001, 2),))  # 15e6 members
        comb = TimestampSet(entries=((5, 24_000_005, 6),))  # 4e6 members
        other = TimestampSet(entries=((2, 30_000_002, 4),))
        assert len(big) > 10_000_000

        t0 = time.perf_counter()
        diff = big.subtract(comb)
        merged = big.union(other)
        inter = big.intersect(comb)
        shifted = big.shift(-1)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        assert elapsed_ms < 100.0, f"kernels took {elapsed_ms:.1f} ms"

        # Exact cardinalities, computed without expansion.
        assert len(diff) == len(big) - len(inter)
        assert len(merged) == len(big) + len(other)  # disjoint parities
        assert len(inter) == len(range(5, 24_000_006, 6))  # comb is odd
        assert len(shifted) == len(big) - 1  # timestamp 1 clips at zero

    def test_huge_from_pieces_roundtrip(self):
        a = TimestampSet(entries=((1, 20_000_001, 4),))
        b = TimestampSet(entries=((3, 20_000_003, 4),))
        t0 = time.perf_counter()
        merged = a.union(b)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        assert elapsed_ms < 100.0, f"_from_pieces took {elapsed_ms:.1f} ms"
        # Interleaved combs stay compressed: two entries, never 10^7.
        assert len(merged.entries) <= 2
        assert len(merged) == len(a) + len(b)
        assert len(merged) > 10_000_000
        assert 3 in merged and 5 in merged and 2 not in merged
