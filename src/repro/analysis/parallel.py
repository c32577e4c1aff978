"""Parallel fan-out of independent data-flow analysis tasks.

Per-function partitioning makes profile-limited analysis embarrassingly
parallel: one (function, trace, fact) frequency task reads nothing but
its own trace, so tasks fan across a per-call
``concurrent.futures.ProcessPoolExecutor`` --

1. estimate each task's cost (trace length, the bound on backward
   propagation work);
2. pack tasks into ``jobs * chunks_per_job`` shards with a greedy
   longest-processing-time bin packing (:func:`plan_shards`), so one
   heavy task cannot serialize the pool while small shards keep the
   queue fed;
3. ship each shard to a worker, which builds a memoized
   :class:`~repro.analysis.engine.DemandDrivenEngine` per task and
   returns plain :class:`~repro.analysis.frequency.FrequencyReport`\\ s;
4. merge results back **in task order**, so ``jobs`` only changes
   wall-clock time, never the reports.

Per-task engines share nothing, and the per-task computation is
deterministic, so any interleaving yields reports identical to the
serial loop -- the equivalence tests pin this down.  If a pool cannot
be created or breaks (restricted sandboxes, a killed worker,
interpreter teardown), the shards run in-process and the
``analysis.parallel_fallback`` counter records it.

This is the package's only process fan-out: nothing else imports
``multiprocessing`` or a process pool (the HTTP daemon imports only
``concurrent.futures.ThreadPoolExecutor``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry

__all__ = [
    "analyze_tasks_parallel",
    "plan_shards",
    "resolve_jobs",
]

DEFAULT_CHUNKS_PER_JOB = 4

# One payload item: (task index, (func, trace, fact[, blocks])).
_ShardItem = Tuple[int, Tuple]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def plan_shards(costs: Sequence[int], n_shards: int) -> List[List[int]]:
    """Pack item indices into at most ``n_shards`` cost-balanced shards.

    Greedy LPT: place items largest-first onto the currently lightest
    shard.  Ties break on the lowest shard index, so the plan is
    deterministic for a given cost vector.  Empty shards are dropped.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, len(costs)) or 1
    shards: List[List[int]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for idx in order:
        lightest = loads.index(min(loads))
        shards[lightest].append(idx)
        loads[lightest] += costs[idx] + 1  # +1: per-item fixed overhead
    return [shard for shard in shards if shard]


def _task_cost(task: Tuple) -> int:
    """Backward-propagation work bound: the trace length."""
    return len(task[1])


def _analyze_shard(payload: List[_ShardItem]) -> List[Tuple[int, object]]:
    """Worker entry point: run every frequency task in one shard."""
    from .frequency import fact_frequencies

    out = []
    for task_idx, task in payload:
        func, trace, fact = task[:3]
        blocks = task[3] if len(task) > 3 else None
        out.append((task_idx, fact_frequencies(func, trace, fact, blocks=blocks)))
    return out


def analyze_tasks_parallel(
    tasks: Sequence[Tuple],
    jobs: Optional[int],
    metrics: Optional[MetricsRegistry] = None,
    chunks_per_job: int = DEFAULT_CHUNKS_PER_JOB,
) -> List[object]:
    """Run frequency tasks on a pool of ``jobs`` worker processes.

    Returns one :class:`~repro.analysis.frequency.FrequencyReport` per
    task, in task order -- exactly what the serial loop in
    :func:`~repro.analysis.frequency.fact_frequencies_many` produces.
    Tasks must be picklable; facts that rely on statement identity
    (:class:`~repro.analysis.facts.DefinitionFrom`) must stay serial.
    """
    if metrics is None:
        metrics = MetricsRegistry()
    n_jobs = resolve_jobs(jobs)
    costs = [_task_cost(task) for task in tasks]
    shards = plan_shards(costs, n_jobs * max(1, chunks_per_job))
    payloads: List[List[_ShardItem]] = [
        [(idx, tuple(tasks[idx])) for idx in shard] for shard in shards
    ]
    metrics.inc("analysis.parallel_runs")
    metrics.inc("analysis.shards", len(shards))
    metrics.inc("analysis.tasks", len(tasks))

    results: List[Optional[object]] = [None] * len(tasks)
    try:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for chunk in pool.map(_analyze_shard, payloads):
                for task_idx, report in chunk:
                    results[task_idx] = report
    except (OSError, BrokenProcessPool, RuntimeError, ImportError):
        # Pool creation/teardown failed (restricted sandbox, missing
        # semaphores, a killed worker, interpreter shutdown): analyze
        # in-process instead.
        metrics.inc("analysis.parallel_fallback")
        results = [None] * len(tasks)
        for payload in payloads:
            for task_idx, report in _analyze_shard(payload):
                results[task_idx] = report

    missing = [i for i, report in enumerate(results) if report is None]
    if missing:  # pragma: no cover - defensive; plan covers every index
        raise RuntimeError(f"shard plan dropped task indices {missing}")
    return results
