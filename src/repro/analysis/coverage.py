"""Structural coverage reports from whole program paths.

A stored WPP is a perfect coverage record: which blocks and edges of
each function executed, and how often.  This module derives the classic
testing metrics (block coverage, edge/branch coverage) from the
partitioned representation -- cheaply, because unique traces are
decomposed once and weighted by the DCG's activation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir.module import Program
from ..trace.partition import PartitionedWpp


@dataclass(frozen=True)
class FunctionCoverage:
    """Block and edge coverage of one function in one recorded run."""

    name: str
    blocks_total: int
    blocks_hit: int
    edges_total: int
    edges_hit: int
    block_counts: Tuple[Tuple[int, int], ...]  # (block id, executions)

    @property
    def block_coverage(self) -> float:
        return self.blocks_hit / self.blocks_total if self.blocks_total else 1.0

    @property
    def edge_coverage(self) -> float:
        return self.edges_hit / self.edges_total if self.edges_total else 1.0

    def uncovered_blocks(self, func) -> List[int]:
        """Blocks never executed (needs the static function)."""
        hit = {b for b, _c in self.block_counts}
        return [b for b in func.block_ids() if b not in hit]


@dataclass
class CoverageReport:
    """Program-wide coverage derived from a partitioned WPP."""

    functions: Dict[str, FunctionCoverage] = field(default_factory=dict)
    uncalled_functions: List[str] = field(default_factory=list)

    @property
    def total_block_coverage(self) -> float:
        """Aggregate over all functions, uncalled ones included."""
        total = sum(f.blocks_total for f in self.functions.values())
        hit = sum(f.blocks_hit for f in self.functions.values())
        total += sum(self._uncalled_blocks.values())
        return hit / total if total else 1.0

    _uncalled_blocks: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["function           blocks        edges"]
        for name in sorted(self.functions):
            fc = self.functions[name]
            lines.append(
                f"{name:18s} {fc.blocks_hit:3d}/{fc.blocks_total:<3d} "
                f"({fc.block_coverage:6.1%})  {fc.edges_hit:3d}/"
                f"{fc.edges_total:<3d} ({fc.edge_coverage:6.1%})"
            )
        for name in self.uncalled_functions:
            lines.append(f"{name:18s} never called")
        lines.append(f"overall block coverage: {self.total_block_coverage:.1%}")
        return "\n".join(lines)


def coverage_report(
    partitioned: PartitionedWpp, program: Program
) -> CoverageReport:
    """Compute block/edge coverage for every function in the program."""
    weights = partitioned.dcg.activation_counts()

    traced = {name: i for i, name in enumerate(partitioned.func_names)}
    report = CoverageReport()
    for func in program:
        if func.name not in traced:
            report.uncalled_functions.append(func.name)
            report._uncalled_blocks[func.name] = len(func.blocks)
            continue
        idx = traced[func.name]
        block_counts: Dict[int, int] = {}
        edges_hit: Set[Tuple[int, int]] = set()
        for trace_id, trace in enumerate(partitioned.traces[idx]):
            weight = weights.get((idx, trace_id), 0)
            for block in trace:
                block_counts[block] = block_counts.get(block, 0) + weight
            edges_hit.update(zip(trace, trace[1:]))
        static_edges = set(func.edges())
        report.functions[func.name] = FunctionCoverage(
            name=func.name,
            blocks_total=len(func.blocks),
            blocks_hit=len(block_counts),
            edges_total=len(static_edges),
            edges_hit=len(edges_hit & static_edges),
            block_counts=tuple(sorted(block_counts.items())),
        )
    report.uncalled_functions.sort()
    return report
