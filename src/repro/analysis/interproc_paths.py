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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compact.pipeline import CompactedWpp
from ..compact.series import TimestampSet
from ..ir.module import Program
from ..ir.stmt import Call
from .facts import GEN, KILL, TRANSPARENT, Fact
from .interproc import ActivationAnalysis, activation_effects


@dataclass
class InterproceduralResult:
    """Outcome of one interprocedural query, in origin-instance counts."""

    requested: int
    holds: int = 0
    fails: int = 0
    #: Instances whose query reached the very start of the program.
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

    Requires a :class:`~repro.compact.pipeline.CompactedWpp` with valid
    parent links (in-memory pipelines keep them; after
    :func:`~repro.compact.query.read_twpp` run
    :func:`~repro.trace.reconstruct.rebuild_parents` first).
    """

    def __init__(self, compacted: CompactedWpp, program: Program, fact: Fact):
        self.compacted = compacted
        self.program = program
        self.fact = fact
        self._effects = activation_effects(compacted, program, fact)
        self._children = compacted.dcg.children_lists()
        self._analyses: Dict[int, ActivationAnalysis] = {}
        # Per node: (parent node, index among the parent's children).
        self._parent_slot: Dict[int, Tuple[int, int]] = {}
        for parent, kids in enumerate(self._children):
            for slot, child in enumerate(kids):
                self._parent_slot[child] = (parent, slot)

    # ------------------------------------------------------------------

    def _analysis(self, node: int) -> ActivationAnalysis:
        analysis = self._analyses.get(node)
        if analysis is None:
            analysis = ActivationAnalysis(
                self.compacted,
                self.program,
                self.fact,
                node,
                effects=self._effects,
            )
            self._analyses[node] = analysis
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
        requested = origin.cfg.ts(block_id) if ts is None else ts
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
            analysis = self._analysis(act)
            intra = analysis.engine().query(blk, current)
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
        slot = self._parent_slot.get(node)
        if slot is None:
            result.unresolved_at_start += escaped
            return
        parent, child_index = slot
        analysis = self._analysis(parent)
        position, stmt_index = self._call_site(analysis, child_index)
        result.queries_issued += 1

        # Statements of the call block *before* the call, newest first.
        verdict = self._classify_block_prefix(
            analysis, position, stmt_index
        )
        if verdict == GEN:
            result.holds += escaped
            return
        if verdict == KILL:
            result.fails += escaped
            return
        # Prefix transparent: the question becomes "does the fact hold
        # at *entry* of the call block's instance?", which is a plain
        # intra query in the caller (and escapes further up if the call
        # block is the caller's first trace position).
        call_block = analysis.trace[position - 1]
        work.append(
            (parent, call_block, TimestampSet.single(position), escaped)
        )

    def _call_site(
        self, analysis: ActivationAnalysis, child_index: int
    ) -> Tuple[int, int]:
        """Locate the ``child_index``-th call of an activation.

        Returns ``(trace position, statement index of the call)``.
        """
        # calls_before[pos] is the number of calls at positions < pos;
        # find the position whose block contains call #child_index.
        trace = analysis.trace
        calls_before = analysis._calls_before
        lo, hi = 1, len(trace)
        # calls_before is non-decreasing: binary search the position.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if calls_before[mid] <= child_index:
                lo = mid
            else:
                hi = mid - 1
        position = lo
        block = analysis.function.block(trace[position - 1])
        rank = child_index - calls_before[position]
        seen = -1
        for idx, stmt in enumerate(block.statements):
            if isinstance(stmt, Call):
                seen += 1
                if seen == rank:
                    return position, idx
        raise AssertionError(
            f"activation {analysis.node}: call #{child_index} not found"
        )

    def _classify_block_prefix(
        self, analysis: ActivationAnalysis, position: int, stop: int
    ) -> str:
        """Net effect of the call block's statements before index ``stop``.

        Scanned backward; earlier calls in the same block resolve to
        their child activations' effects.
        """
        block = analysis.function.block(analysis.trace[position - 1])
        base = analysis._calls_before[position]
        call_rank = sum(
            1 for s in block.statements[:stop] if isinstance(s, Call)
        )
        for stmt in reversed(block.statements[:stop]):
            if isinstance(stmt, Call):
                call_rank -= 1
                child = analysis.children[base + call_rank]
                effect = self._effects[child]
                if effect != TRANSPARENT:
                    return effect
            elif self.fact.gens(stmt):
                return GEN
            elif self.fact.kills(stmt):
                return KILL
        return TRANSPARENT


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
