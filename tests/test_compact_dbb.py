"""Unit + property tests for dynamic basic block discovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact import (
    DbbDictionary,
    compact_trace,
    dynamic_cfg,
    expand_trace,
    find_dbb_chains,
    verify_dictionary,
)
from repro.compact.dbb import ENTRY_MARK, EXIT_MARK


class TestDynamicCfg:
    def test_virtual_marks(self):
        succs, preds = dynamic_cfg((1, 2, 3))
        assert ENTRY_MARK in preds[1]
        assert EXIT_MARK in succs[3]

    def test_edges(self):
        succs, _preds = dynamic_cfg((1, 2, 3, 2, 3))
        edges = {(a, b) for a, targets in succs.items() for b in targets}
        assert edges - {(3, EXIT_MARK)} == {(1, 2), (2, 3), (3, 2)}

    def test_empty_trace(self):
        succs, preds = dynamic_cfg(())
        assert succs == {} and preds == {}


class TestChains:
    def test_paper_main_trace(self):
        """Figure 4: main's trace yields chain 2.3.4."""
        trace = (1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 6)
        d = find_dbb_chains(trace)
        assert d.chains == ((2, 3, 4),)
        body, d2 = compact_trace(trace)
        assert body == (1, 2, 2, 2, 2, 2, 6)
        assert d2 == d

    def test_paper_f_traces(self):
        """Figure 4/5: the two f traces share a body, differ in dicts."""
        a = (1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10)
        b = (1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10)
        body_a, dict_a = compact_trace(a)
        body_b, dict_b = compact_trace(b)
        assert body_a == body_b == (1, 2, 2, 2, 10)
        assert dict_a.chains == ((2, 3, 4, 5, 6),)
        assert dict_b.chains == ((2, 7, 8, 9, 6),)

    def test_trace_ending_mid_chain_not_folded(self):
        # 1.2 repeats, but the trace ends at 1: the EXIT mark gives 1 a
        # second successor, so no chain can swallow 2 unconditionally.
        trace = (1, 2, 1, 2, 1)
        body, d = compact_trace(trace)
        assert expand_trace(body, d) == trace

    def test_trace_starting_mid_chain(self):
        # 2 always follows 1 except for the very first occurrence.
        trace = (2, 1, 2, 1, 2)
        body, d = compact_trace(trace)
        assert expand_trace(body, d) == trace

    def test_self_loop_not_chained(self):
        trace = (1, 1, 1, 2)
        body, d = compact_trace(trace)
        assert len(d) == 0
        assert body == trace

    def test_single_block_trace(self):
        body, d = compact_trace((5,))
        assert body == (5,) and len(d) == 0

    def test_whole_trace_is_one_chain(self):
        trace = (1, 2, 3, 4, 5)
        body, d = compact_trace(trace)
        assert body == (1,)
        assert d.chains == ((1, 2, 3, 4, 5),)


class TestDictionary:
    def test_short_chain_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            DbbDictionary(chains=((1,),))

    def test_as_map_and_members(self):
        d = DbbDictionary(chains=((2, 3, 4), (7, 8)))
        assert d.as_map() == {2: (2, 3, 4), 7: (7, 8)}
        assert d.member_blocks() == {3, 4, 8}
        assert len(d) == 2

    def test_dictionaries_hashable_for_dedup(self):
        d1 = DbbDictionary(chains=((2, 3),))
        d2 = DbbDictionary(chains=((2, 3),))
        assert len({d1, d2}) == 1

    def test_verify_rejects_bad_dictionary(self):
        trace = (1, 2, 3, 1, 3)
        bad = DbbDictionary(chains=((2, 3),))  # 3 also occurs alone
        with pytest.raises(ValueError):
            verify_dictionary(trace, bad)


@st.composite
def random_walk(draw):
    """Random block sequences, including loop-like repetitions."""
    alphabet = draw(st.integers(2, 8))
    length = draw(st.integers(1, 60))
    return tuple(
        draw(st.integers(1, alphabet)) for _ in range(length)
    )


class TestProperties:
    @given(random_walk())
    @settings(max_examples=300)
    def test_roundtrip(self, trace):
        body, d = compact_trace(trace)
        assert expand_trace(body, d) == trace

    @given(random_walk())
    @settings(max_examples=200)
    def test_verify_accepts_own_dictionary(self, trace):
        _body, d = compact_trace(trace)
        verify_dictionary(trace, d)

    @given(random_walk())
    @settings(max_examples=200)
    def test_body_never_longer(self, trace):
        body, _d = compact_trace(trace)
        assert len(body) <= len(trace)

    @given(random_walk())
    @settings(max_examples=200)
    def test_chain_members_disjoint(self, trace):
        d = find_dbb_chains(trace)
        seen = set()
        for chain in d.chains:
            for block in chain:
                assert block not in seen
                seen.add(block)
