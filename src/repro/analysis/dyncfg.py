"""The timestamp-annotated dynamic control flow graph.

Section 4.1 of the paper: for one path trace, build the dynamic CFG
(nodes are the blocks that actually executed, edges the transitions the
trace actually took) and annotate every node with its timestamp set in
compacted-series form.  A ``(timestamp, node)`` pair names one point in
the path trace; its unique predecessor point is ``(t-1, m)`` where ``m``
is the node holding timestamp ``t-1`` -- that determinism is what makes
demand-driven backward propagation exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..compact.series import TimestampSet


@dataclass
class TimestampedCfg:
    """Dynamic CFG of one path trace with per-node timestamp sets."""

    trace_len: int
    node_ts: Dict[int, TimestampSet]
    preds: Dict[int, Tuple[int, ...]]
    succs: Dict[int, Tuple[int, ...]]
    #: The path trace itself, read as the position-to-node table:
    #: position ``t`` holds node ``trace[t - 1]``.  ``from_trace``
    #: shares a tuple it is given (traces read from a ``.twpp`` are
    #: tuples) and copies any other sequence once, 8 bytes a position.
    trace: Tuple[int, ...]

    @classmethod
    def from_trace(cls, trace: Sequence[int]) -> "TimestampedCfg":
        """Annotate the dynamic CFG of a raw (or DBB-compacted) trace.

        Timestamps are 1-based trace positions, as in the paper's
        Figures 9 and 10.
        """
        trace = tuple(trace)
        positions: Dict[int, List[int]] = {}
        preds: Dict[int, Set[int]] = {}
        succs: Dict[int, Set[int]] = {}
        for t, block in enumerate(trace, start=1):
            positions.setdefault(block, []).append(t)
            preds.setdefault(block, set())
            succs.setdefault(block, set())
        for a, b in zip(trace, trace[1:]):
            succs[a].add(b)
            preds[b].add(a)
        return cls(
            trace_len=len(trace),
            node_ts={
                b: TimestampSet.from_values(ts) for b, ts in positions.items()
            },
            preds={b: tuple(sorted(s)) for b, s in preds.items()},
            succs={b: tuple(sorted(s)) for b, s in succs.items()},
            trace=trace,
        )

    def nodes(self) -> List[int]:
        """Dynamic basic block ids, ascending."""
        return sorted(self.node_ts)

    def edge_count(self) -> int:
        """Number of dynamic edges."""
        return sum(len(s) for s in self.succs.values())

    def ts(self, node: int) -> TimestampSet:
        """Timestamp set of a node (empty set if the node never ran)."""
        return self.node_ts.get(node, TimestampSet())

    def block_order(self) -> List[int]:
        """Nodes ordered by first execution time."""
        return sorted(self.node_ts, key=lambda b: self.node_ts[b].min())

    def validate(self) -> None:
        """Check the annotation is a bijection onto 1..trace_len."""
        total = sum(len(ts) for ts in self.node_ts.values())
        if total != self.trace_len:
            raise ValueError(
                f"timestamp sets cover {total} positions, "
                f"trace has {self.trace_len}"
            )
        seen: Set[int] = set()
        for ts in self.node_ts.values():
            for t in ts:
                if t in seen:
                    raise ValueError(f"timestamp {t} annotated twice")
                seen.add(t)


@dataclass(frozen=True)
class FlowGraphStats:
    """Static-vs-dynamic flow graph sizes (paper Table 6)."""

    static_nodes: int
    static_edges: int
    dynamic_nodes: int
    dynamic_edges: int
    avg_vector_slots: float  # compacted timestamp-vector size
    avg_vector_raw: float  # uncompacted (one slot per timestamp)


def flowgraph_stats(func, traces: Sequence[Sequence[int]]) -> FlowGraphStats:
    """Compare a function's static CFG against its dynamic flow graphs.

    ``traces`` are the function's unique path traces; nodes and edges of
    all their dynamic graphs are summed (the paper counts "the nodes and
    edges in all of these graphs"), and the timestamp-vector sizes are
    averaged over dynamic nodes.
    """
    dynamic_nodes = 0
    dynamic_edges = 0
    slot_total = 0
    raw_total = 0
    for trace in traces:
        cfg = TimestampedCfg.from_trace(trace)
        dynamic_nodes += len(cfg.node_ts)
        dynamic_edges += cfg.edge_count()
        for ts in cfg.node_ts.values():
            slot_total += ts.slot_count()
            raw_total += len(ts)
    return FlowGraphStats(
        static_nodes=len(func.blocks),
        static_edges=len(func.edges()),
        dynamic_nodes=dynamic_nodes,
        dynamic_edges=dynamic_edges,
        avg_vector_slots=slot_total / dynamic_nodes if dynamic_nodes else 0.0,
        avg_vector_raw=raw_total / dynamic_nodes if dynamic_nodes else 0.0,
    )
