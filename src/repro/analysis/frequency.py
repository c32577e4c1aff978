"""Data-flow frequency analysis over path traces.

The paper frames its queries as computing "the frequency with which d
holds true with respect to the given path trace" -- the profile-exact
version of Ramalingam's data flow frequency analysis, used to find
*hot data flow facts* for profile-guided optimizers.  This module is
the batch API: evaluate one fact at every executed block of a trace
(or a chosen subset) and rank the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir.module import Function
from ..obs import MetricsRegistry
from .dyncfg import TimestampedCfg
from .engine import DemandDrivenEngine, QueryResult
from .facts import Fact, fact_to_spec


@dataclass(frozen=True)
class FactFrequency:
    """How often a fact held at one block's entry during the trace."""

    block_id: int
    executions: int
    holds: int
    fails: int
    unresolved: int
    queries_issued: int

    @property
    def frequency(self) -> float:
        """holds / executions (unresolved instances count as not-held)."""
        return self.holds / self.executions if self.executions else 0.0

    @property
    def always(self) -> bool:
        return self.executions > 0 and self.holds == self.executions

    @property
    def never(self) -> bool:
        return self.holds == 0


@dataclass
class FrequencyReport:
    """Per-block fact frequencies for one (function, trace, fact)."""

    fact: Fact
    entries: Dict[int, FactFrequency]
    total_queries: int

    def at(self, block_id: int) -> FactFrequency:
        return self.entries[block_id]

    def hot_facts(self, threshold: float = 0.9) -> List[FactFrequency]:
        """Blocks where the fact holds at least ``threshold`` of the time.

        These are the "hot data flow facts" a profile-guided optimizer
        would speculate on, ranked by execution count.
        """
        hot = [
            e
            for e in self.entries.values()
            if e.executions > 0 and e.frequency >= threshold
        ]
        hot.sort(key=lambda e: (-e.executions, e.block_id))
        return hot

    def blocks(self) -> List[int]:
        return sorted(self.entries)


def fact_frequencies(
    func: Function,
    trace: Sequence[int],
    fact: Fact,
    blocks: Optional[Iterable[int]] = None,
    engine: Optional[DemandDrivenEngine] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> FrequencyReport:
    """Evaluate ``fact`` at entry of every requested block instance.

    ``blocks`` defaults to every block executed by the trace.  One
    memoized demand-driven engine serves the whole sweep through
    :meth:`~repro.analysis.engine.DemandDrivenEngine.query_many`, so
    backward traversals resolved for one block are reused by every
    later block whose instances those traversals crossed.  Pass a
    pre-built ``engine`` to reuse its memo across *calls* too (e.g. a
    second fact sweep on the same trace is wrong -- the engine is bound
    to one fact -- but repeated sweeps over block subsets are not).
    """
    if engine is None:
        engine = DemandDrivenEngine.for_function_trace(
            func, trace, fact, metrics=metrics
        )
    cfg = engine.cfg
    targets = list(blocks) if blocks is not None else cfg.nodes()
    entries: Dict[int, FactFrequency] = {}
    total_queries = 0
    for block_id, result in zip(targets, engine.query_many(targets)):
        total_queries += result.queries_issued
        entries[block_id] = FactFrequency(
            block_id=block_id,
            executions=len(result.requested),
            holds=len(result.holds),
            fails=len(result.fails),
            unresolved=len(result.unresolved),
            queries_issued=result.queries_issued,
        )
    return FrequencyReport(
        fact=fact, entries=entries, total_queries=total_queries
    )


#: One unit of batch work: (function, trace, fact) or
#: (function, trace, fact, blocks).
FrequencyTask = Tuple


def fact_frequencies_many(
    tasks: Sequence[FrequencyTask],
    jobs: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[FrequencyReport]:
    """Batch :func:`fact_frequencies` over many (function, trace, fact)
    tasks, preserving input order.

    This is the multi-function analysis pass a profile server runs
    after a batch :meth:`~repro.compact.qserve.QueryEngine.traces_many`
    pull.  Each task builds its own demand-driven engine, so tasks
    share nothing and any interleaving yields identical reports.
    ``jobs`` (``0`` = all cores) above one ships LPT-packed shards of
    tasks to worker *processes* via
    :func:`repro.analysis.parallel.analyze_tasks_parallel`.  A batch
    holding a fact with no spec spelling
    (:func:`~repro.analysis.facts.fact_to_spec`), such as the
    identity-based :class:`~repro.analysis.facts.DefinitionFrom`, runs
    serially whatever ``jobs`` says.
    """
    items = [tuple(task) for task in tasks]

    if jobs is not None and len(items) > 1:
        from .parallel import analyze_tasks_parallel, resolve_jobs

        if resolve_jobs(jobs) > 1 and all(
            fact_to_spec(item[2]) is not None for item in items
        ):
            return analyze_tasks_parallel(items, jobs, metrics=metrics)

    reports = []
    for item in items:
        func, trace, fact = item[:3]
        blocks = item[3] if len(item) > 3 else None
        reports.append(
            fact_frequencies(func, trace, fact, blocks=blocks, metrics=metrics)
        )
    return reports
