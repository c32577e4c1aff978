"""Unit tests for frozen grammars: expansion, codec, invariant checker."""

import pytest

from repro.sequitur import (
    Grammar,
    build_grammar,
    verify_grammar_invariants,
)


class TestGrammarModel:
    def test_requires_start_rule(self):
        with pytest.raises(ValueError, match="start rule"):
            Grammar(rules=[])

    def test_dangling_reference_rejected(self):
        with pytest.raises(ValueError, match="dangling"):
            Grammar(rules=[(-5,)])

    def test_expand_with_nested_rules(self):
        # rule 2 = "1 2"; rule 0 = rule2 rule2 3 (-3 encodes rule 2).
        g = Grammar(rules=[(-3, -3, 3), (9, 9), (1, 2)])
        assert g.expand() == [1, 2, 1, 2, 3]

    def test_expand_iter_is_lazy(self):
        g = Grammar(rules=[(-3, -3), (0, 0), (1, 2)])
        it = g.expand_iter()
        assert next(it) == 1

    def test_expanded_length_without_expansion(self):
        g = build_grammar([1, 2, 3] * 100)
        assert g.expanded_length() == 300

    def test_cyclic_grammar_detected(self):
        g = Grammar.__new__(Grammar)
        object.__setattr__(g, "rules", [(-1,)])  # rule 0 references itself
        with pytest.raises(ValueError, match="cyclic"):
            g.expanded_length()

    def test_total_symbols(self):
        g = Grammar(rules=[(-2, 3), (0,), (1, 2)])
        assert g.total_symbols() == 5


class TestCodec:
    def test_serialize_roundtrip(self):
        g = build_grammar([5, 6, 7, 5, 6, 7, 5, 6])
        assert Grammar.deserialize(g.serialize()) == g

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="not a SQTR"):
            Grammar.deserialize(b"XXXX\x01\x00")

    def test_trailing_bytes(self):
        data = build_grammar([1, 2]).serialize() + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            Grammar.deserialize(data)


class TestInvariantChecker:
    def test_accepts_valid(self):
        verify_grammar_invariants(build_grammar([1, 2, 3, 1, 2, 4, 1, 2]))

    def test_rejects_repeated_digram(self):
        g = Grammar(rules=[(1, 2, 3, 1, 2)])
        with pytest.raises(ValueError, match="digram"):
            verify_grammar_invariants(g)

    def test_rejects_underused_rule(self):
        g = Grammar(rules=[(-2, 9), (1, 2)])  # rule 1 used once
        with pytest.raises(ValueError, match="referenced 1"):
            verify_grammar_invariants(g)

    def test_allows_overlapping_triples(self):
        # "aaa" as a single rule: digram (a,a) appears twice, overlapping.
        g = Grammar(rules=[(7, 7, 7)])
        verify_grammar_invariants(g)
