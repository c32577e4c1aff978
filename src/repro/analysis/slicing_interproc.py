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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..compact.pipeline import CompactedWpp
from ..ir.control_dependence import control_dependence
from ..ir.module import Function, Program
from ..ir.stmt import Call, Stmt
from .dyncfg import TimestampedCfg
from .tsvector import TimestampSet


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


class _ActCtx:
    """Cached per-activation view: trace, annotated CFG, call layout."""

    def __init__(self, compacted: CompactedWpp, program: Program, node: int):
        dcg = compacted.dcg
        fc = compacted.functions[dcg.node_func[node]]
        self.node = node
        self.function: Function = program.function(fc.name)
        self.trace = fc.expand_pair(dcg.node_trace[node])
        self.cfg = TimestampedCfg.from_trace(self.trace)
        self.cd_parents = control_dependence(self.function)
        # calls_before[pos]: calls executed at positions < pos (1-based).
        self.calls_before = [0] * (len(self.trace) + 1)
        running = 0
        for pos, block_id in enumerate(self.trace, start=1):
            self.calls_before[pos] = running
            running += len(self.function.block(block_id).calls())
        self.total_calls = running

    def block_at(self, position: int) -> int:
        return self.trace[position - 1]

    def last_def_stmt(self, block_id: int, var: str) -> Optional[Stmt]:
        """The last statement of a block defining ``var`` (or None)."""
        for stmt in reversed(self.function.block(block_id).statements):
            if var in stmt.defs():
                return stmt
        return None

    def child_for_call(
        self, children: List[int], position: int, call_stmt: Call
    ) -> int:
        """DCG child executed by ``call_stmt`` at trace ``position``."""
        block = self.function.block(self.block_at(position))
        rank = 0
        for stmt in block.statements:
            if stmt is call_stmt:
                break
            if isinstance(stmt, Call):
                rank += 1
        return children[self.calls_before[position] + rank]


class InterproceduralSlicer:
    """Instance-precise dynamic slicing across activations."""

    def __init__(self, compacted: CompactedWpp, program: Program):
        self.compacted = compacted
        self.program = program
        self._children = compacted.dcg.children_lists()
        self._parent_slot: Dict[int, Tuple[int, int]] = {}
        for parent, kids in enumerate(self._children):
            for slot, child in enumerate(kids):
                self._parent_slot[child] = (parent, slot)
        self._ctx: Dict[int, _ActCtx] = {}

    def _context(self, node: int) -> _ActCtx:
        ctx = self._ctx.get(node)
        if ctx is None:
            ctx = self._ctx[node] = _ActCtx(self.compacted, self.program, node)
        return ctx

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
        ctx = self._context(node)
        if ts is None:
            ts = TimestampSet.single(ctx.cfg.ts(block_id).max())

        slice_nodes: Set[Tuple[str, int]] = {(ctx.function.name, block_id)}
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
            actx = self._context(act)
            slice_nodes.add((actx.function.name, blk))
            self._control_context(
                act, blk, instances, slice_nodes, enqueue
            )

        def call_stack_context(act: int) -> None:
            """The call sites that caused ``act`` to run at all."""
            slot = self._parent_slot.get(act)
            while slot is not None:
                parent, child_index = slot
                pctx = self._context(parent)
                position = self._call_position(pctx, child_index)
                call_block = pctx.block_at(position)
                if (pctx.function.name, call_block) in slice_nodes:
                    break  # context already established
                add_node(parent, call_block, TimestampSet.single(position))
                slot = self._parent_slot.get(parent)

        for var in variables:
            enqueue(node, block_id, ts, var)
        self._control_context(node, block_id, ts, slice_nodes, enqueue)
        call_stack_context(node)

        while worklist:
            act, blk, current, var = worklist.pop()
            visited_acts.add(act)
            actx = self._context(act)
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
            criterion=(self._context(node).function.name, block_id),
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
        actx = self._context(act)
        add_node(act, block, instances)
        stmt = actx.last_def_stmt(block, var)
        if isinstance(stmt, Call) and stmt.dest == var:
            # The value came out of a callee: follow its return.
            for t in instances:
                child = actx.child_for_call(
                    self._children[act], t, stmt
                )
                cctx = self._context(child)
                exit_pos = len(cctx.trace)
                exit_block = cctx.block_at(exit_pos)
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
        if stmt is not None:
            for used in stmt.uses():
                enqueue(act, block, instances, used)

    def _escape_to_caller(
        self, act: int, var: str, add_node, enqueue, call_stack_context
    ) -> None:
        """A query reached the activation's entry still unresolved."""
        actx = self._context(act)
        if var not in actx.function.params:
            return  # uninitialized local: no dependence
        slot = self._parent_slot.get(act)
        if slot is None:
            return  # root activation: parameters came from outside
        parent, child_index = slot
        pctx = self._context(parent)
        position = self._call_position(pctx, child_index)
        call_block = pctx.block_at(position)
        call_stmt = self._call_stmt(pctx, child_index, position)
        add_node(parent, call_block, TimestampSet.single(position))
        call_stack_context(parent)
        param_index = actx.function.params.index(var)
        arg = call_stmt.args[param_index]
        for used in arg.variables():
            enqueue(parent, call_block, TimestampSet.single(position), used)

    def _control_context(
        self, act: int, block: int, instances: TimestampSet,
        slice_nodes: Set[Tuple[str, int]], enqueue,
    ) -> None:
        """Intra-activation control dependence, instance-precise."""
        actx = self._context(act)
        for parent in actx.cd_parents.get(block, ()):
            parent_ts = actx.cfg.ts(parent)
            if not parent_ts:
                continue
            chosen: List[int] = []
            parent_values = parent_ts.values()
            for t in instances:
                earlier = [p for p in parent_values if p < t]
                if earlier:
                    chosen.append(max(earlier))
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

    def _call_position(self, pctx: _ActCtx, child_index: int) -> int:
        """Trace position of the parent block containing call #child_index."""
        lo, hi = 1, len(pctx.trace)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if pctx.calls_before[mid] <= child_index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _call_stmt(
        self, pctx: _ActCtx, child_index: int, position: int
    ) -> Call:
        block = pctx.function.block(pctx.block_at(position))
        rank = child_index - pctx.calls_before[position]
        seen = -1
        for stmt in block.statements:
            if isinstance(stmt, Call):
                seen += 1
                if seen == rank:
                    return stmt
        raise AssertionError("call statement not found")
