"""The dynamic call graph (DCG).

The compacted WPP keeps one node per function *activation*; the node
records which function ran and which of that function's unique path
traces the activation followed.  Together with the static program the
DCG lets the original WPP be reconstructed exactly (paper, Figure 2).

Nodes are stored in preorder (activation order), which is also the order
in which children of any node were called -- so the tree needs no parent
or child links, in memory or on disk: :func:`dcg_children` derives it
from the per-trace call counts.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .encoding import (
    check_count,
    decode_uvarints,
    encode_uvarints,
    read_uvarint,
    write_uvarint,
)


@dataclass
class DynamicCallGraph:
    """Preorder-encoded activation tree.

    ``node_func[i]`` is the function index of activation ``i``;
    ``node_trace[i]`` is the id of the unique path trace (within that
    function's trace table) the activation followed.  Node 0 is the
    root activation of main.
    """

    node_func: array = field(default_factory=lambda: array("I"))
    node_trace: array = field(default_factory=lambda: array("I"))

    def __len__(self) -> int:
        return len(self.node_func)

    def add_node(self, func_idx: int) -> int:
        """Append an activation; its trace id is set later via :meth:`set_trace`."""
        self.node_func.append(func_idx)
        self.node_trace.append(0)
        return len(self.node_func) - 1

    def set_trace(self, node: int, trace_id: int) -> None:
        """Record which unique trace activation ``node`` followed."""
        self.node_trace[node] = trace_id

    def calls_per_function(self, n_funcs: int) -> List[int]:
        """Activation counts indexed by function index."""
        counts = [0] * n_funcs
        for func_idx in self.node_func:
            counts[func_idx] += 1
        return counts

    def activation_counts(self) -> Dict[Tuple[int, int], int]:
        """Activations per ``(function index, trace id)``.

        Keys come in order of first activation, so callers that iterate
        the result see pairs in the order the run first took them.
        """
        return Counter(zip(self.node_func, self.node_trace))

    def serialize(self) -> bytes:
        """Encode as varints: node count then (func, trace) per node.

        The tree shape follows from the traces plus the static program
        (the k-th call an activation executes is its k-th child in
        preorder; :func:`dcg_children`), so it is not stored -- this
        mirrors the paper, where the DCG links path traces and is then
        LZW-compressed.
        """
        buf = bytearray()
        write_uvarint(buf, len(self))
        buf += encode_uvarints(
            list(chain.from_iterable(zip(self.node_func, self.node_trace)))
        )
        return bytes(buf)

    @classmethod
    def deserialize(cls, data: bytes) -> "DynamicCallGraph":
        """Decode :meth:`serialize` output: equal to the graph written."""
        count, offset = read_uvarint(data, 0)
        check_count(count, data, offset, min_bytes=2)
        values, offset = decode_uvarints(data, offset, 2 * count)
        if offset != len(data):
            raise ValueError("trailing bytes after DCG")
        return cls(
            node_func=array("I", values[0::2]),
            node_trace=array("I", values[1::2]),
        )


def dcg_children(
    dcg: DynamicCallGraph, pair_calls: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Every node's children in call order, derived from preorder alone.

    ``pair_calls[f][t]`` is the number of calls an activation of
    function ``f`` following trace ``t`` executes
    (:func:`repro.trace.reconstruct.pair_call_counts`).  Walking the
    preorder with a stack of open activations, each node is the next
    child of the innermost activation with a call left.  Raises
    ``ValueError`` naming the node when the counts and the nodes
    disagree: a node arrives after every call has been matched, or an
    activation's calls are left over at the end.
    """
    children: List[List[int]] = [[] for _ in range(len(dcg))]
    waiting: List[List[int]] = []  # [node, calls left] of open activations
    for node, (func_idx, trace_id) in enumerate(
        zip(dcg.node_func, dcg.node_trace)
    ):
        if node:
            if not waiting:
                raise ValueError(
                    f"DCG node {node}: no activation has a call left for it"
                )
            caller = waiting[-1]
            children[caller[0]].append(node)
            caller[1] -= 1
            if not caller[1]:
                waiting.pop()
        calls = pair_calls[func_idx][trace_id]
        if calls:
            waiting.append([node, calls])
    if waiting:
        node, left = waiting[-1]
        made = len(children[node])
        raise ValueError(
            f"DCG node {node}: trace executes {made + left} calls but the "
            f"DCG records {made} children"
        )
    return children
