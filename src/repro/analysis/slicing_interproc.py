"""Interprocedural dynamic slicing over the dynamic call graph.

The paper's slicing section works intraprocedurally and notes that the
"techniques can be easily extended to handle interprocedural paths by
analyzing path traces of multiple functions in concert" (Section 4.2).
This module applies that recipe to the instance-precise slicing
algorithm (Approach 3): a slice criterion anywhere in the activation
tree chases data dependences

* *within* an activation along its timestamp-annotated dynamic CFG,
* *into* callees when the reaching definition is a call's return value
  (continuing at the callee's returning instance), and
* *out to* callers when a queried variable is a parameter (continuing
  at the call site's argument expression),

while control context accumulates both intraprocedurally (static
control dependence) and interprocedurally (an activation's code only
ran because its call site did -- the dynamic call stack closure).

The result is a program-wide slice of ``(function, block)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..compact.pipeline import CompactedWpp
from ..compact.series import TimestampSet
from ..ir.control_dependence import control_dependence
from ..ir.module import Function, Program
from ..ir.stmt import Call
from .interproc import ActivationTree
from .slicing import governing_instances


@dataclass(frozen=True)
class InterSliceResult:
    """A program-wide dynamic slice."""

    criterion: Tuple[str, int]  # (function, block)
    slice_nodes: FrozenSet[Tuple[str, int]]  # (function, block) pairs
    activations_visited: int
    queries_issued: int

    def blocks_of(self, function: str) -> List[int]:
        """The sliced blocks of one function, ascending."""
        return sorted(b for f, b in self.slice_nodes if f == function)

    def functions(self) -> List[str]:
        """Functions contributing at least one block, sorted."""
        return sorted({f for f, _b in self.slice_nodes})


class InterproceduralSlicer:
    """Instance-precise dynamic slicing across activations."""

    def __init__(self, compacted: CompactedWpp, program: Program):
        self.tree = ActivationTree(compacted, program)
        self._cd_parents: Dict[str, Dict[int, List[int]]] = {}

    def _control_parents(self, function: Function) -> Dict[int, List[int]]:
        cd = self._cd_parents.get(function.name)
        if cd is None:
            cd = self._cd_parents[function.name] = control_dependence(function)
        return cd

    # ------------------------------------------------------------------

    def slice(
        self,
        node: int,
        block_id: int,
        variables,
        ts: Optional[TimestampSet] = None,
    ) -> InterSliceResult:
        """Slice on ``variables`` at an instance of ``block_id``.

        ``ts`` defaults to the block's last execution in that
        activation (the typical "breakpoint" instance).
        """
        tree = self.tree
        origin = tree.activation(node)
        if ts is None:
            ts = TimestampSet.single(origin.cfg.ts(block_id).max())

        slice_nodes: Set[Tuple[str, int]] = {(origin.function.name, block_id)}
        visited_acts: Set[int] = set()
        queries = 0
        # (activation, block, instances, variable)
        worklist: List[Tuple[int, int, TimestampSet, str]] = []
        seen: Set[Tuple[int, int, Tuple, str]] = set()

        def enqueue(act: int, blk: int, sub: TimestampSet, var: str) -> None:
            key = (act, blk, sub.entries, var)
            if sub and key not in seen:
                seen.add(key)
                worklist.append((act, blk, sub, var))

        def add_node(act: int, blk: int, instances: TimestampSet) -> None:
            """Add a block to the slice with its control context."""
            slice_nodes.add((tree.activation(act).function.name, blk))
            self._control_context(
                act, blk, instances, slice_nodes, enqueue
            )

        def call_stack_context(act: int) -> None:
            """The call sites that caused ``act`` to run at all."""
            caller = tree.caller[act]
            while caller is not None:
                parent, k = caller
                pact = tree.activation(parent)
                position = pact.call_site(k)[0]
                call_block = pact.trace[position - 1]
                if (pact.function.name, call_block) in slice_nodes:
                    break  # context already established
                add_node(parent, call_block, TimestampSet.single(position))
                caller = tree.caller[parent]

        for var in variables:
            enqueue(node, block_id, ts, var)
        self._control_context(node, block_id, ts, slice_nodes, enqueue)
        call_stack_context(node)

        while worklist:
            act, blk, current, var = worklist.pop()
            visited_acts.add(act)
            actx = tree.activation(act)
            # Block granularity: a definition inside the queried block
            # itself may satisfy uses later in that block (in-place
            # def-use).  Resolve it, and *also* keep walking backward,
            # since uses earlier in the block may predate the def.
            if var in actx.function.block(blk).defs():
                queries += 1
                self._on_definition(act, blk, current, var, add_node, enqueue)
            # Walk backward through this activation's trace.
            frontier: List[Tuple[int, TimestampSet]] = [(blk, current)]
            while frontier:
                n, cur = frontier.pop()
                # Entries are sorted by ``lo``: position 1, the
                # activation's entry, can only open the first one.
                if cur.entries[0][0] == 1:
                    self._escape_to_caller(
                        act, var, add_node, enqueue, call_stack_context
                    )
                shifted = cur.shift(-1)
                if not shifted:
                    continue
                for m in actx.cfg.preds.get(n, ()):
                    sub = shifted.intersect(actx.cfg.ts(m))
                    if not sub:
                        continue
                    queries += 1
                    if var in actx.function.block(m).defs():
                        self._on_definition(
                            act, m, sub, var, add_node, enqueue
                        )
                    else:
                        frontier.append((m, sub))

        return InterSliceResult(
            criterion=(origin.function.name, block_id),
            slice_nodes=frozenset(slice_nodes),
            activations_visited=len(visited_acts),
            queries_issued=queries,
        )

    def slice_many(self, criteria: Sequence[Tuple]) -> List[InterSliceResult]:
        """Batch :meth:`slice` over many criteria, preserving order.

        Each criterion is ``(node, block_id, variables)`` or
        ``(node, block_id, variables, ts)``; every slice builds its own
        worklist and result set, sharing only the per-activation
        context cache.
        """
        results = []
        for criterion in criteria:
            node, block_id, variables = criterion[:3]
            ts = criterion[3] if len(criterion) > 3 else None
            results.append(self.slice(node, block_id, variables, ts=ts))
        return results

    # ------------------------------------------------------------------

    def _on_definition(
        self, act: int, block: int, instances: TimestampSet, var: str,
        add_node, enqueue,
    ) -> None:
        """A block defining ``var`` reached at specific instances."""
        actx = self.tree.activation(act)
        add_node(act, block, instances)
        statements = actx.function.block(block).statements
        # The block's last statement defining ``var``, and how many calls
        # precede it in the block.
        index = max(i for i, s in enumerate(statements) if var in s.defs())
        stmt = statements[index]
        if isinstance(stmt, Call):
            # The value came out of a callee: follow its return.
            rank = sum(isinstance(s, Call) for s in statements[:index])
            for t in instances:
                child = actx.children[actx.calls_before[t] + rank]
                cctx = self.tree.activation(child)
                exit_pos = len(cctx.trace)
                exit_block = cctx.trace[exit_pos - 1]
                add_node(child, exit_block, TimestampSet.single(exit_pos))
                term = cctx.function.block(exit_block).terminator
                for used in (term.uses() if term else frozenset()):
                    enqueue(
                        child,
                        exit_block,
                        TimestampSet.single(exit_pos),
                        used,
                    )
            # The call's argument values only matter through the callee's
            # own parameter uses, which escape back here if relevant.
            return
        # Ordinary definition: chase the defining statement's uses.
        for used in stmt.uses():
            enqueue(act, block, instances, used)

    def _escape_to_caller(
        self, act: int, var: str, add_node, enqueue, call_stack_context
    ) -> None:
        """A query reached the activation's entry still unresolved."""
        function = self.tree.activation(act).function
        caller = self.tree.caller[act]
        if var not in function.params or caller is None:
            # An uninitialized local has no dependence; the root's
            # parameters came from outside.
            return
        parent, k = caller
        pact = self.tree.activation(parent)
        position, _index, call_stmt = pact.call_site(k)
        call_block = pact.trace[position - 1]
        add_node(parent, call_block, TimestampSet.single(position))
        call_stack_context(parent)
        arg = call_stmt.args[function.params.index(var)]
        for used in arg.variables():
            enqueue(parent, call_block, TimestampSet.single(position), used)

    def _control_context(
        self, act: int, block: int, instances: TimestampSet,
        slice_nodes: Set[Tuple[str, int]], enqueue,
    ) -> None:
        """Intra-activation control dependence, instance-precise."""
        actx = self.tree.activation(act)
        for parent in self._control_parents(actx.function).get(block, ()):
            parent_ts = actx.cfg.ts(parent)
            if not parent_ts:
                continue
            chosen = governing_instances(parent_ts.values(), instances)
            if not chosen:
                continue
            follow = TimestampSet.from_values(chosen)
            key = (actx.function.name, parent)
            newly = key not in slice_nodes
            slice_nodes.add(key)
            for used in actx.function.block(parent).uses():
                enqueue(act, parent, follow, used)
            if newly:
                self._control_context(
                    act, parent, follow, slice_nodes, enqueue
                )
