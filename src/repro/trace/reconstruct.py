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

from typing import Dict, List, Sequence

from ..ir.module import Program
from .partition import PartitionedWpp, PathTrace
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


def pair_call_counts(
    func_names: Sequence[str],
    traces: Sequence[Sequence[PathTrace]],
    program: Program,
) -> List[List[int]]:
    """Calls executed per ``(function index, trace id)``: the input of
    :func:`~repro.trace.dcg.dcg_children`."""
    counts = block_call_counts(program)
    return [
        [trace_call_count(trace, counts[name]) for trace in table]
        for name, table in zip(func_names, traces)
    ]


def reconstruct_wpp(partitioned: PartitionedWpp, program: Program) -> WppTrace:
    """Regenerate the full WPP event stream.

    Enters the DCG's nodes in preorder: each runs its trace until a
    call, whose callee is the next node, or until it leaves.  Raises
    ``ValueError`` when the traces' call counts and the DCG's nodes
    disagree.
    """
    call_counts = block_call_counts(program)
    dcg = partitioned.dcg
    builder = WppBuilder()
    # Open activations: [block call counts, trace iterator, calls left
    # in the current block].
    stack: List[list] = []
    for node, (func_idx, trace_id) in enumerate(
        zip(dcg.node_func, dcg.node_trace)
    ):
        if node and not stack:
            raise ValueError(
                f"DCG node {node}: no activation has a call left for it"
            )
        name = partitioned.func_names[func_idx]
        builder.enter(name)
        trace = partitioned.traces[func_idx][trace_id]
        stack.append([call_counts[name], iter(trace), 0])
        while stack:
            frame = stack[-1]
            if frame[2]:
                frame[2] -= 1
                break  # the next node is this call's callee
            block_id = next(frame[1], None)
            if block_id is None:
                builder.leave()
                stack.pop()
            else:
                builder.block_run([block_id])
                frame[2] = frame[0][block_id]
    if stack:
        raise ValueError(
            f"trace calls past the DCG's last node {len(dcg) - 1}"
        )
    return builder.finish()
