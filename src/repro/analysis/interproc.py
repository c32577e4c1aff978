"""Interprocedural effects: accounting for calls inside path traces.

Section 4.2: when a node contains a call, its dynamic GEN/KILL sets for
a fact depend on what the *specific callee activations* did --
``GEN_f(T(n))`` is the subset of timestamps whose call generated the
fact.  This module computes, bottom-up over the dynamic call graph, the
net effect (GEN / KILL / TRANSPARENT) of every activation, and builds
per-activation effect functions that resolve call statements per
timestamp.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compact.pipeline import CompactedWpp
from ..compact.series import TimestampSet
from ..ir.module import Program
from ..ir.stmt import Call
from .dyncfg import TimestampedCfg
from .engine import DemandDrivenEngine, EffectFn
from .facts import GEN, KILL, TRANSPARENT, Fact


def activation_effects(
    compacted: CompactedWpp, program: Program, fact: Fact
) -> List[str]:
    """Net effect of every DCG activation on ``fact``.

    Returns one of ``gen``/``kill``/``transparent`` per DCG node,
    computed in reverse preorder so children are resolved before their
    callers.  An activation's effect is decided by the last decisive
    event of its execution: scanning its path trace backward, the first
    statement that generates or kills the fact -- or the first call
    whose activation does -- wins.
    """
    dcg = compacted.dcg
    children = dcg.children_lists()
    effects: List[str] = [TRANSPARENT] * len(dcg)
    traces = [fc.traces() for fc in compacted.functions]

    for node in range(len(dcg) - 1, -1, -1):
        func_idx = dcg.node_func[node]
        func = program.function(compacted.functions[func_idx].name)
        trace = traces[func_idx][dcg.node_trace[node]]
        kids = children[node]

        # Walk the trace backward; calls map to children from the end.
        next_child = len(kids)  # index *after* the child being consumed
        effect = TRANSPARENT
        for block_id in reversed(trace):
            block = func.block(block_id)
            n_calls = len(block.calls())
            call_cursor = n_calls  # calls in this block not yet consumed
            for stmt in reversed(block.statements):
                if isinstance(stmt, Call):
                    call_cursor -= 1
                    next_child -= 1
                    child_effect = effects[kids[next_child]]
                    if child_effect != TRANSPARENT:
                        effect = child_effect
                        break
                elif fact.gens(stmt):
                    effect = GEN
                    break
                elif fact.kills(stmt):
                    effect = KILL
                    break
            if effect != TRANSPARENT:
                break
        effects[node] = effect
    return effects


class ActivationAnalysis:
    """Profile-limited analysis bound to one specific DCG activation.

    Builds the timestamp-annotated dynamic CFG of the activation's path
    trace and an effect function in which call statements resolve to the
    net effect of the precise child activation executed at each
    timestamp (the k-th call executed by the activation is its k-th DCG
    child).
    """

    def __init__(
        self,
        compacted: CompactedWpp,
        program: Program,
        fact: Fact,
        node: int,
        effects: Optional[List[str]] = None,
    ):
        self.compacted = compacted
        self.program = program
        self.fact = fact
        self.node = node
        if effects is None:
            effects = activation_effects(compacted, program, fact)
        self._effects = effects
        # Per-block (gen, kill, transparent) partition of the block's
        # full timestamp set; computed once, served by intersection.
        self._block_partition: Dict[
            int, Tuple[TimestampSet, TimestampSet, TimestampSet]
        ] = {}
        self._engine: Optional[DemandDrivenEngine] = None

        dcg = compacted.dcg
        func_idx = dcg.node_func[node]
        fc = compacted.functions[func_idx]
        self.function = program.function(fc.name)
        self.trace = fc.expand_pair(dcg.node_trace[node])
        self.children = dcg.children_lists()[node]
        self.cfg = TimestampedCfg.from_trace(self.trace)

        # calls_before[t] = calls executed at trace positions < t
        # (1-based positions; index 0 unused).
        self._calls_before = [0] * (len(self.trace) + 1)
        running = 0
        for pos, block_id in enumerate(self.trace, start=1):
            self._calls_before[pos] = running
            running += len(self.function.block(block_id).calls())
        self._total_calls = running
        if running != len(self.children):
            raise ValueError(
                f"activation {node}: trace executes {running} calls but "
                f"DCG records {len(self.children)} children"
            )

    def engine(self) -> DemandDrivenEngine:
        """The activation's demand-driven engine with call-aware effects.

        One engine is kept per activation so its verdict memo
        accumulates across queries (interprocedural propagation re-enters
        the same activations repeatedly).
        """
        if self._engine is None:
            self._engine = DemandDrivenEngine(self.cfg, self._effect)
        return self._engine

    def query(self, block_id: int, ts: Optional[TimestampSet] = None):
        """Convenience: evaluate ``<T, block>`` on this activation."""
        return self.engine().query(block_id, ts)

    # ------------------------------------------------------------------

    def _effect(
        self, block_id: int, ts: TimestampSet
    ) -> Tuple[TimestampSet, TimestampSet, TimestampSet]:
        gen_full, kill_full, trans_full = self._partition(block_id)
        # Common timestamp-invariant cases: no per-call intersection.
        if not gen_full and not kill_full:
            return gen_full, kill_full, ts
        if not kill_full and not trans_full:
            return ts, kill_full, trans_full
        if not gen_full and not trans_full:
            return gen_full, ts, trans_full
        return (
            ts.intersect(gen_full),
            ts.intersect(kill_full),
            ts.intersect(trans_full),
        )

    def _partition(
        self, block_id: int
    ) -> Tuple[TimestampSet, TimestampSet, TimestampSet]:
        """(gen, kill, transparent) split of the block's full timestamp set.

        Computed once per block -- per-instance call resolution is the
        expensive part of interprocedural effects -- then every query
        classifies its vector by intersecting against the cached split.
        """
        cached = self._block_partition.get(block_id)
        if cached is not None:
            return cached
        block = self.function.block(block_id)
        statements = block.statements
        full = self.cfg.ts(block_id)
        empty = TimestampSet()
        if not any(isinstance(s, Call) for s in statements):
            # Timestamp-invariant: classify once.
            from .facts import classify_statements

            cls = classify_statements(statements, self.fact)
            if cls == GEN:
                cached = (full, empty, empty)
            elif cls == KILL:
                cached = (empty, full, empty)
            else:
                cached = (empty, empty, full)
        else:
            # Call-bearing block: resolve each instance once, here.
            call_offsets = [
                i for i, s in enumerate(statements) if isinstance(s, Call)
            ]
            gen_vals: List[int] = []
            kill_vals: List[int] = []
            trans_vals: List[int] = []
            for t in full:
                verdict = self._classify_instance(
                    statements, call_offsets, t
                )
                if verdict == GEN:
                    gen_vals.append(t)
                elif verdict == KILL:
                    kill_vals.append(t)
                else:
                    trans_vals.append(t)
            cached = (
                TimestampSet.from_values(gen_vals),
                TimestampSet.from_values(kill_vals),
                TimestampSet.from_values(trans_vals),
            )
        self._block_partition[block_id] = cached
        return cached

    def _classify_instance(
        self, statements, call_offsets: List[int], t: int
    ) -> str:
        base = self._calls_before[t]
        call_rank = len(call_offsets)  # rank of the call *after* cursor
        for stmt in reversed(statements):
            if isinstance(stmt, Call):
                call_rank -= 1
                child = self.children[base + call_rank]
                child_effect = self._effects[child]
                if child_effect != TRANSPARENT:
                    return child_effect
            elif self.fact.gens(stmt):
                return GEN
            elif self.fact.kills(stmt):
                return KILL
        return TRANSPARENT


def analyze_activation(
    compacted: CompactedWpp,
    program: Program,
    fact: Fact,
    node: int = 0,
) -> ActivationAnalysis:
    """Build an :class:`ActivationAnalysis` (default: the root activation)."""
    return ActivationAnalysis(compacted, program, fact, node)
