"""Comparing two stored runs (TWPP deltas).

The paper's premise is that compacted WPPs are cheap enough to *keep*
("saved for future analysis").  Once runs are kept, the natural
downstream question is how two of them differ -- after an input change,
a compiler upgrade, or a suspected behavioural regression.  This module
answers it at the representation's own granularity: per function, which
unique path traces appeared/disappeared, and how call counts shifted.

Both sides are compared on *expanded* unique traces (DBB dictionaries
resolved), so two runs compare equal exactly when their per-function
path behaviour is identical, regardless of how each was compacted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .pipeline import CompactedWpp

PathTrace = Tuple[int, ...]


@dataclass(frozen=True)
class FunctionDelta:
    """How one function's recorded behaviour changed between two runs."""

    name: str
    calls_a: int
    calls_b: int
    traces_a: int
    traces_b: int
    only_in_a: FrozenSet[PathTrace]
    only_in_b: FrozenSet[PathTrace]

    @property
    def trace_set_changed(self) -> bool:
        return bool(self.only_in_a or self.only_in_b)

    @property
    def call_count_changed(self) -> bool:
        return self.calls_a != self.calls_b

    @property
    def unchanged(self) -> bool:
        return not self.trace_set_changed and not self.call_count_changed

    def summary(self) -> str:
        parts = [f"{self.name}:"]
        if self.call_count_changed:
            parts.append(f"calls {self.calls_a} -> {self.calls_b}")
        if self.only_in_b:
            parts.append(f"+{len(self.only_in_b)} new trace(s)")
        if self.only_in_a:
            parts.append(f"-{len(self.only_in_a)} vanished trace(s)")
        if self.unchanged:
            parts.append("unchanged")
        return " ".join(parts)


@dataclass
class TwppDelta:
    """Full comparison of two compacted runs."""

    functions: Dict[str, FunctionDelta] = field(default_factory=dict)
    only_in_a: List[str] = field(default_factory=list)
    only_in_b: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when both runs recorded exactly the same behaviour."""
        return (
            not self.only_in_a
            and not self.only_in_b
            and all(d.unchanged for d in self.functions.values())
        )

    def changed_functions(self) -> List[FunctionDelta]:
        """Deltas with any change, most-divergent (new traces) first."""
        changed = [d for d in self.functions.values() if not d.unchanged]
        changed.sort(
            key=lambda d: (
                -(len(d.only_in_a) + len(d.only_in_b)),
                d.name,
            )
        )
        return changed

    def render(self, limit: int = 20) -> str:
        """Human-readable report."""
        lines: List[str] = []
        if self.identical:
            return "runs are behaviourally identical"
        for name in self.only_in_a:
            lines.append(f"{name}: only executed in run A")
        for name in self.only_in_b:
            lines.append(f"{name}: only executed in run B")
        for delta in self.changed_functions()[:limit]:
            lines.append(delta.summary())
        remaining = len(self.changed_functions()) - limit
        if remaining > 0:
            lines.append(f"... and {remaining} more changed function(s)")
        return "\n".join(lines)


def _expanded_traces(compacted: CompactedWpp, name: str) -> Set[PathTrace]:
    fc = compacted.function(name)
    return set(fc.traces())


def diff_compacted(a: CompactedWpp, b: CompactedWpp) -> TwppDelta:
    """Compare two compacted runs function by function."""
    names_a = {fc.name for fc in a.functions}
    names_b = {fc.name for fc in b.functions}
    delta = TwppDelta(
        only_in_a=sorted(names_a - names_b),
        only_in_b=sorted(names_b - names_a),
    )
    for name in sorted(names_a & names_b):
        fa = a.function(name)
        fb = b.function(name)
        traces_a = _expanded_traces(a, name)
        traces_b = _expanded_traces(b, name)
        delta.functions[name] = FunctionDelta(
            name=name,
            calls_a=fa.call_count,
            calls_b=fb.call_count,
            traces_a=len(traces_a),
            traces_b=len(traces_b),
            only_in_a=frozenset(traces_a - traces_b),
            only_in_b=frozenset(traces_b - traces_a),
        )
    return delta


def diff_twpp_files(path_a, path_b) -> TwppDelta:
    """Compare two ``.twpp`` files on disk."""
    from .query import read_twpp

    return diff_compacted(read_twpp(path_a), read_twpp(path_b))
