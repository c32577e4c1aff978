"""Dominator and postdominator computation.

Implements the iterative dominance algorithm of Cooper, Harvey and
Kennedy ("A Simple, Fast Dominance Algorithm") over arbitrary digraphs,
plus postdominators via graph reversal with a virtual exit node.  These
feed control-dependence computation (:mod:`repro.ir.control_dependence`),
which the dynamic slicing algorithms of the paper's Section 4.3.2 need
for control-dependence edges in the program dependence graph.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .module import Function

Node = Hashable

#: Virtual exit node used when computing postdominators of a CFG with
#: multiple (or zero) return blocks.
VIRTUAL_EXIT: str = "<exit>"


def _reverse_postorder(
    entry: Node, succs: Mapping[Node, Sequence[Node]]
) -> List[Node]:
    """Reverse postorder of nodes reachable from ``entry``."""
    order: List[Node] = []
    seen = set()
    # Iterative DFS with an explicit stack of (node, child-iterator).
    stack: List[Tuple[Node, Iterable[Node]]] = [(entry, iter(succs.get(entry, ())))]
    seen.add(entry)
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if child not in seen:
                seen.add(child)
                stack[-1] = (node, it)
                stack.append((child, iter(succs.get(child, ()))))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def immediate_dominators(
    entry: Node, succs: Mapping[Node, Sequence[Node]]
) -> Dict[Node, Node]:
    """Compute immediate dominators for all nodes reachable from ``entry``.

    Returns a map ``node -> idom(node)``; the entry maps to itself.
    Unreachable nodes are absent from the result.
    """
    rpo = _reverse_postorder(entry, succs)
    index = {node: i for i, node in enumerate(rpo)}
    preds: Dict[Node, List[Node]] = {node: [] for node in rpo}
    for node in rpo:
        for child in succs.get(node, ()):
            if child in index:
                preds[child].append(node)

    idom: Dict[Node, Optional[Node]] = {node: None for node in rpo}
    idom[entry] = entry

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == entry:
                continue
            candidates = [p for p in preds[node] if idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return {node: d for node, d in idom.items() if d is not None}


def function_postdominators(func: Function) -> Dict[Node, Node]:
    """Immediate postdominators of a function's CFG blocks.

    Computed as dominators of the reversed CFG rooted at
    :data:`VIRTUAL_EXIT`, which has an edge from every exit block.  The
    virtual exit appears in the result; callers typically ignore it.
    Blocks that cannot reach any exit (infinite loops) are absent.
    """
    rsuccs: Dict[Node, List[Node]] = {VIRTUAL_EXIT: []}
    for bid in func.block_ids():
        rsuccs.setdefault(bid, [])
    for bid in func.block_ids():
        for succ in func.successors(bid):
            rsuccs[succ].append(bid)
    for exit_block in func.exit_blocks():
        rsuccs[VIRTUAL_EXIT].append(exit_block)
    return immediate_dominators(VIRTUAL_EXIT, rsuccs)
