"""Immutable Sequitur grammars: expansion, statistics and the codec.

A frozen grammar is a list of rule bodies.  Body elements are plain
ints: values ``>= 0`` are terminals, values ``< 0`` encode rule
references (``-(k+1)`` references rule ``k``).  Rule 0 is the start rule
and generates exactly the original input string.

The on-disk format (magic ``SQTR``) packs each body element as a single
unsigned varint -- ``terminal << 1`` or ``(rule_index << 1) | 1`` -- so
grammar size on disk tracks symbol count, matching how the paper
compares "compacted size" of the Sequitur representation (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..trace.encoding import check_count, read_uvarint, write_uvarint

MAGIC = b"SQTR"


@dataclass(frozen=True)
class Grammar:
    """A frozen straight-line grammar (one string, rule 0 = start)."""

    rules: List[Tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("grammar needs at least the start rule")
        for body in self.rules:
            for element in body:
                if element < 0 and -(element + 1) >= len(self.rules):
                    raise ValueError(f"dangling rule reference {element}")

    def rule_count(self) -> int:
        return len(self.rules)

    def total_symbols(self) -> int:
        """Sum of rule body lengths -- the grammar's symbol count."""
        return sum(len(body) for body in self.rules)

    def expand_iter(self) -> Iterator[int]:
        """Yield the generated terminal string lazily (iterative walk)."""
        stack: List[Tuple[int, int]] = [(0, 0)]  # (rule index, position)
        while stack:
            rule_idx, pos = stack.pop()
            body = self.rules[rule_idx]
            while pos < len(body):
                element = body[pos]
                pos += 1
                if element >= 0:
                    yield element
                else:
                    stack.append((rule_idx, pos))
                    rule_idx, pos = -(element + 1), 0
                    body = self.rules[rule_idx]

    def expand(self) -> List[int]:
        """The full generated string (materialized)."""
        return list(self.expand_iter())

    def expanded_length(self) -> int:
        """Length of the generated string without materializing it."""
        memo: List[int] = [0] * len(self.rules)
        # Rules only reference later-created rules in arbitrary order;
        # compute lengths by explicit dependency resolution.
        state: List[int] = [0] * len(self.rules)  # 0=new, 1=open, 2=done
        for start in range(len(self.rules)):
            if state[start] == 2:
                continue
            stack = [start]
            while stack:
                idx = stack[-1]
                if state[idx] == 2:
                    stack.pop()
                    continue
                state[idx] = 1
                missing = [
                    -(e + 1)
                    for e in self.rules[idx]
                    if e < 0 and state[-(e + 1)] != 2
                ]
                if missing:
                    if any(state[m] == 1 for m in missing):
                        raise ValueError("cyclic grammar")
                    stack.extend(missing)
                    continue
                total = 0
                for e in self.rules[idx]:
                    total += 1 if e >= 0 else memo[-(e + 1)]
                memo[idx] = total
                state[idx] = 2
                stack.pop()
        return memo[0]

    # ---- codec ---------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode to ``SQTR`` bytes."""
        buf = bytearray()
        buf.extend(MAGIC)
        write_uvarint(buf, len(self.rules))
        for body in self.rules:
            write_uvarint(buf, len(body))
            for element in body:
                if element >= 0:
                    write_uvarint(buf, element << 1)
                else:
                    write_uvarint(buf, ((-(element + 1)) << 1) | 1)
        return bytes(buf)

    @classmethod
    def deserialize(cls, data: bytes) -> "Grammar":
        """Decode ``SQTR`` bytes."""
        if data[:4] != MAGIC:
            raise ValueError("not a SQTR grammar")
        offset = 4
        n_rules, offset = read_uvarint(data, offset)
        check_count(n_rules, data, offset)
        rules: List[Tuple[int, ...]] = []
        for _ in range(n_rules):
            length, offset = read_uvarint(data, offset)
            check_count(length, data, offset)
            body: List[int] = []
            for _ in range(length):
                raw, offset = read_uvarint(data, offset)
                if raw & 1:
                    body.append(-((raw >> 1) + 1))
                else:
                    body.append(raw >> 1)
            rules.append(tuple(body))
        if offset != len(data):
            raise ValueError("trailing bytes after grammar")
        return cls(rules=rules)


def verify_grammar_invariants(grammar: Grammar) -> None:
    """Check Sequitur's two invariants on a frozen grammar.

    * digram uniqueness: no adjacent pair occurs twice across all rules
      (overlapping occurrences of the same pair are permitted, matching
      the online algorithm's treatment of triples like ``aaa``);
    * rule utility: every rule except the start is referenced >= 2 times.
    """
    seen = {}
    for rule_idx, body in enumerate(grammar.rules):
        prev_positions: dict = {}
        for i in range(len(body) - 1):
            digram = (body[i], body[i + 1])
            if digram in seen:
                other_rule, other_pos = seen[digram]
                overlapping = other_rule == rule_idx and abs(other_pos - i) == 1
                if not overlapping:
                    raise ValueError(
                        f"digram {digram} repeated "
                        f"(rule {other_rule} pos {other_pos} and "
                        f"rule {rule_idx} pos {i})"
                    )
            else:
                seen[digram] = (rule_idx, i)
    refs = [0] * len(grammar.rules)
    for body in grammar.rules:
        for element in body:
            if element < 0:
                refs[-(element + 1)] += 1
    for idx, count in enumerate(refs[1:], start=1):
        if count < 2:
            raise ValueError(f"rule {idx} referenced {count} time(s)")
