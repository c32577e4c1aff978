"""Reconstructing the original WPP from its partitioned form.

The compaction pipeline must be lossless: the paper stresses that the
"ability to construct the complete WPP from individual path traces is
preserved by maintaining a dynamic call graph".  This module is the
proof by construction -- it regenerates the exact event stream from
(program, DCG, unique traces), and the test suite round-trips every
workload through it.

The key observation is that child order needs no extra storage: the
k-th call *executed* by an activation (walking its path trace through
the static program, counting call statements per block) is its k-th
child in DCG preorder.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.module import Program
from .dcg import DynamicCallGraph
from .partition import PartitionedWpp
from .wpp import WppBuilder, WppTrace


def block_call_counts(program: Program) -> Dict[str, Dict[int, int]]:
    """Per function: map block id -> number of call statements in it."""
    out: Dict[str, Dict[int, int]] = {}
    for func in program:
        out[func.name] = {
            bid: len(func.blocks[bid].calls()) for bid in func.block_ids()
        }
    return out


def trace_call_count(
    trace, call_counts: Dict[int, int]
) -> int:
    """Total calls executed by an activation following ``trace``."""
    return sum(call_counts[b] for b in trace)


def reconstruct_wpp(partitioned: PartitionedWpp, program: Program) -> WppTrace:
    """Regenerate the full WPP event stream.

    Iterative preorder walk of the DCG, interleaving each activation's
    blocks with descents into its children at call sites.
    """
    call_counts = block_call_counts(program)
    children = partitioned.dcg.children_lists()
    builder = WppBuilder()

    # Frame: [node, trace, trace position, pending calls in current
    # block, child cursor].
    root = 0
    if len(partitioned.dcg) == 0:
        return builder.finish()

    def open_frame(node: int) -> list:
        func_idx = partitioned.dcg.node_func[node]
        name = partitioned.func_names[func_idx]
        trace = partitioned.traces[func_idx][partitioned.dcg.node_trace[node]]
        builder.enter(name)
        return [node, name, trace, 0, 0, 0]

    stack: List[list] = [open_frame(root)]
    while stack:
        frame = stack[-1]
        node, name, trace, pos, pending, cursor = frame
        if pending > 0:
            frame[4] = pending - 1
            child = children[node][cursor]
            frame[5] = cursor + 1
            stack.append(open_frame(child))
            continue
        if pos < len(trace):
            block_id = trace[pos]
            frame[3] = pos + 1
            builder.block_run([block_id])
            frame[4] = call_counts[name][block_id]
            continue
        builder.leave()
        stack.pop()

    return builder.finish()


def rebuild_parents(
    dcg: DynamicCallGraph, partitioned_traces, func_names, program: Program
) -> None:
    """Fill in ``node_parent`` for a DCG loaded from disk.

    The serialized DCG stores only (func, trace) per preorder node; the
    tree shape is implied by call counts.  This walks the preorder once,
    assigning parents, and mutates ``dcg`` in place.
    """
    call_counts = block_call_counts(program)
    if len(dcg) == 0:
        return
    # remaining[i] = children of node i not yet attached.
    remaining: List[int] = [0] * len(dcg)
    stack: List[int] = []
    for node in range(len(dcg)):
        func_idx = dcg.node_func[node]
        name = func_names[func_idx]
        trace = partitioned_traces[func_idx][dcg.node_trace[node]]
        n_calls = trace_call_count(trace, call_counts[name])
        while stack and remaining[stack[-1]] == 0:
            stack.pop()
        if stack:
            dcg.node_parent[node] = stack[-1]
            remaining[stack[-1]] -= 1
        else:
            dcg.node_parent[node] = -1
        remaining[node] = n_calls
        if n_calls > 0:
            stack.append(node)
