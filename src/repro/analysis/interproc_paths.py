"""Interprocedural query propagation across path traces.

Section 4.2 notes the demand-driven analysis "can be easily extended to
handle interprocedural paths by analyzing path traces of multiple
functions in concert and propagating queries along interprocedural
paths".  This module is that extension: a query raised at any point of
any activation propagates backward through its own path trace and, on
reaching the activation's entry unresolved, continues *in the caller*
at the exact call site -- first through the statements preceding the
call inside the call-bearing block, then backward through the caller's
trace (which itself resolves calls per-activation via the DCG), and so
on up to the root of the dynamic call graph.

Within one activation the propagation stays collective (whole timestamp
series per step); once a bundle of instances funnels through the
activation entry they share a single caller-side point and resolve
together, so the cross-activation stage carries plain instance counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compact.pipeline import CompactedWpp
from ..compact.series import TimestampSet
from ..ir.module import Program
from .facts import GEN, KILL, Fact
from .interproc import ActivationAnalysis, ActivationTree, CallEffects


@dataclass
class InterproceduralResult:
    """Outcome of one interprocedural query, in origin-instance counts."""

    requested: int
    holds: int = 0
    fails: int = 0
    #: Instances whose query reached the very start of the program (for
    #: a fact that does not cross calls, of their own activation).
    unresolved_at_start: int = 0
    queries_issued: int = 0
    #: Activations the propagation visited (origin included).
    activations_visited: int = 0

    @property
    def frequency(self) -> float:
        """Fraction of requested instances at which the fact holds."""
        return self.holds / self.requested if self.requested else 0.0

    def check_conservation(self) -> None:
        total = self.holds + self.fails + self.unresolved_at_start
        if total != self.requested:
            raise AssertionError(
                f"interprocedural query lost instances: "
                f"{total} != {self.requested}"
            )


class InterproceduralEngine:
    """Demand-driven GEN-KILL queries over the whole dynamic call graph.

    Runs on the :class:`~repro.analysis.interproc.ActivationTree` of any
    :class:`~repro.compact.pipeline.CompactedWpp`, one read from disk
    included.  A fact that does not cross calls (``crosses_calls``
    false) is frame-local: instances reaching their activation's entry
    stop there and count as ``unresolved_at_start``.
    """

    def __init__(self, compacted: CompactedWpp, program: Program, fact: Fact):
        self.compacted = compacted
        self.program = program
        self.fact = fact
        self.effects = CallEffects(ActivationTree(compacted, program), fact)
        self._analyses: Dict[int, ActivationAnalysis] = {}

    # ------------------------------------------------------------------

    def _analysis(self, node: int) -> ActivationAnalysis:
        analysis = self._analyses.get(node)
        if analysis is None:
            analysis = self._analyses[node] = ActivationAnalysis(
                self.compacted, self.program, self.fact, node, self.effects
            )
        return analysis

    def query(
        self,
        node: int,
        block_id: int,
        ts: Optional[TimestampSet] = None,
    ) -> InterproceduralResult:
        """Evaluate ``<T, block>`` in activation ``node``, crossing calls.

        ``ts`` defaults to all instances of the block in that activation.
        """
        origin = self._analysis(node)
        requested = origin.activation.cfg.ts(block_id) if ts is None else ts
        result = InterproceduralResult(requested=len(requested))
        if not requested:
            return result

        visited_activations = set()
        # Work items: (activation node, timestamp set within it, how
        # many origin instances each timestamp stands for).
        work: List[Tuple[int, int, TimestampSet, int]] = [
            (node, block_id, requested, 1)
        ]
        while work:
            act, blk, current, weight = work.pop()
            visited_activations.add(act)
            intra = self._analysis(act).engine().query(blk, current)
            result.queries_issued += intra.queries_issued
            result.holds += weight * len(intra.holds)
            result.fails += weight * len(intra.fails)
            escaped = weight * len(intra.unresolved)
            if not escaped:
                continue
            self._cross_to_caller(act, escaped, result, work)

        result.activations_visited = len(visited_activations)
        result.check_conservation()
        return result

    # ------------------------------------------------------------------

    def _cross_to_caller(
        self,
        node: int,
        escaped: int,
        result: InterproceduralResult,
        work: List[Tuple[int, int, TimestampSet, int]],
    ) -> None:
        """Continue ``escaped`` instances of ``node`` in its caller."""
        caller = self.effects.tree.caller[node]
        if caller is None or not self.fact.crosses_calls:
            result.unresolved_at_start += escaped
            return
        parent, k = caller
        act = self.effects.tree.activation(parent)
        position, index, _call = act.call_site(k)
        result.queries_issued += 1

        # Statements of the call block *before* the call, newest first.
        verdict = self.effects.scan(
            act.statements(position)[:index], act.children, k
        )
        if verdict == GEN:
            result.holds += escaped
        elif verdict == KILL:
            result.fails += escaped
        else:
            # Prefix transparent: the question becomes "does the fact
            # hold at *entry* of the call block's instance?", which is a
            # plain intra query in the caller (and escapes further up if
            # the call block is the caller's first trace position).
            work.append(
                (parent, act.trace[position - 1],
                 TimestampSet.single(position), escaped)
            )


def interprocedural_query(
    compacted: CompactedWpp,
    program: Program,
    fact: Fact,
    node: int,
    block_id: int,
    ts: Optional[TimestampSet] = None,
) -> InterproceduralResult:
    """One-shot convenience wrapper around :class:`InterproceduralEngine`."""
    return InterproceduralEngine(compacted, program, fact).query(
        node, block_id, ts
    )
