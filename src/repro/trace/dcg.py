"""The dynamic call graph (DCG).

The compacted WPP keeps one node per function *activation*; the node
records which function ran and which of that function's unique path
traces the activation followed.  Together with the static program the
DCG lets the original WPP be reconstructed exactly (paper, Figure 2).

Nodes are stored in preorder (activation order), which is also the order
in which children of any node were called -- so the tree never needs
explicit child lists on disk.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

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
    function's trace table) the activation followed; ``node_parent[i]``
    is the caller's node index (-1 for the root activation of main).
    """

    node_func: array = field(default_factory=lambda: array("I"))
    node_trace: array = field(default_factory=lambda: array("I"))
    node_parent: array = field(default_factory=lambda: array("q"))

    def __len__(self) -> int:
        return len(self.node_func)

    def add_node(self, func_idx: int, parent: int) -> int:
        """Append an activation; its trace id is set later via :meth:`set_trace`."""
        self.node_func.append(func_idx)
        self.node_trace.append(0)
        self.node_parent.append(parent)
        return len(self.node_func) - 1

    def set_trace(self, node: int, trace_id: int) -> None:
        """Record which unique trace activation ``node`` followed."""
        self.node_trace[node] = trace_id

    def children_lists(self) -> List[List[int]]:
        """Per-node children in call order (preorder creation order)."""
        children: List[List[int]] = [[] for _ in range(len(self))]
        for node, parent in enumerate(self.node_parent):
            if parent >= 0:
                children[parent].append(node)
        return children

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

        Parent links are recomputable from the traces plus the static
        program (the k-th call an activation executes is its k-th child
        in preorder), so they are not stored -- this mirrors the paper,
        where the DCG links path traces and is then LZW-compressed.
        """
        buf = bytearray()
        write_uvarint(buf, len(self))
        buf += encode_uvarints(
            list(chain.from_iterable(zip(self.node_func, self.node_trace)))
        )
        return bytes(buf)

    @classmethod
    def deserialize(cls, data: bytes) -> "DynamicCallGraph":
        """Decode :meth:`serialize` output; parent links are left at -1.

        Callers that need the tree shape rebuild parents with
        :func:`repro.trace.reconstruct.rebuild_parents`.
        """
        count, offset = read_uvarint(data, 0)
        check_count(count, data, offset, min_bytes=2)
        values, offset = decode_uvarints(data, offset, 2 * count)
        if offset != len(data):
            raise ValueError("trailing bytes after DCG")
        return cls(
            node_func=array("I", values[0::2]),
            node_trace=array("I", values[1::2]),
            node_parent=array("q", [-1]) * count,
        )

    def stats(self) -> Dict[str, int]:
        """Basic size numbers used by the experiment tables."""
        return {
            "nodes": len(self),
            "bytes": len(self.serialize()),
        }
