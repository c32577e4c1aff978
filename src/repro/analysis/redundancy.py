"""Dynamic load redundancy -- the profile-guided optimization application.

Section 4.3.1: a load is *redundant* at an instance when the loaded
value is already available in a register -- i.e. the fact "MEM[addr]
available" holds just before that instance.  Edge or path profiles can
only bound the redundancy degree; the WPP gives the exact count, and
the demand-driven engine computes it with a handful of collectively
propagated queries (six for the paper's Figure 9 loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..compact.series import TimestampSet
from ..ir.expr import Const
from ..ir.module import Function
from ..ir.stmt import Load
from .engine import DemandDrivenEngine, QueryResult
from .facts import LoadAvailable


@dataclass(frozen=True)
class RedundancyReport:
    """Redundancy of one load instruction over one path trace."""

    block_id: int
    addr: int
    executions: int
    redundant: int
    queries_issued: int

    @property
    def degree(self) -> float:
        """Fraction of executions at which the load was redundant."""
        return self.redundant / self.executions if self.executions else 0.0

    @property
    def fully_redundant(self) -> bool:
        return self.executions > 0 and self.redundant == self.executions


def find_load(func: Function, block_id: int) -> Load:
    """The (first) constant-address load statement in a block."""
    for stmt in func.block(block_id).statements:
        if isinstance(stmt, Load) and isinstance(stmt.addr, Const):
            return stmt
    raise ValueError(f"{func.name}: B{block_id} has no constant-address load")


def load_redundancy(
    func: Function,
    trace: Sequence[int],
    block_id: int,
    addr: Optional[int] = None,
) -> RedundancyReport:
    """Degree of redundancy of the load in ``block_id`` over ``trace``.

    The availability fact is queried at every instance of the block;
    GEN/KILL classification excludes the queried load itself only in
    the sense that the query asks about *entry* to the block, so a
    block both loading and being queried still counts upstream loads.
    """
    if addr is None:
        addr = find_load(func, block_id).addr.value  # type: ignore[union-attr]
    fact = LoadAvailable(addr)
    engine = DemandDrivenEngine.for_function_trace(func, trace, fact)
    result: QueryResult = engine.query(block_id)
    return RedundancyReport(
        block_id=block_id,
        addr=addr,
        executions=len(result.requested),
        redundant=len(result.holds),
        queries_issued=result.queries_issued,
    )


def redundancy_by_block(
    func: Function, trace: Sequence[int]
) -> Dict[int, RedundancyReport]:
    """Redundancy report for every constant-address load in the trace.

    Skips blocks that never executed in this trace.
    """
    from .dyncfg import TimestampedCfg

    executed = set(TimestampedCfg.from_trace(trace).nodes())
    reports: Dict[int, RedundancyReport] = {}
    for bid in func.block_ids():
        if bid not in executed:
            continue
        for stmt in func.blocks[bid].statements:
            if isinstance(stmt, Load) and isinstance(stmt.addr, Const):
                reports[bid] = load_redundancy(
                    func, trace, bid, stmt.addr.value
                )
                break
    return reports
