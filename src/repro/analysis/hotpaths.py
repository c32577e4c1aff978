"""Hot-path profiling from whole program paths.

The paper positions WPPs against acyclic path profiling (Ball-Larus):
Larus's compressed WPP "is suitable for analysis of hot paths", and any
WPP representation subsumes path profiles -- they can be recovered
exactly from the stored traces.  This module does that recovery from
the *compacted* representation: each unique path trace is decomposed
into maximal acyclic subpaths (a subpath ends where the next block
would revisit one already on it, i.e. at a backedge, mirroring how
Ball-Larus paths terminate), and subpath counts are weighted by how
many activations followed the trace -- information the DCG keeps for
free.

This gives profile-guided optimizers the classic "hottest paths"
ranking without ever re-running the program, and exactly (path
profiles collected by instrumentation are approximate under sampling;
these are ground truth for the recorded run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..trace.partition import PartitionedWpp

Path = Tuple[int, ...]
PathLike = Union[str, "os.PathLike[str]"]


def acyclic_paths(trace: Sequence[int]) -> List[Path]:
    """Decompose a path trace into maximal acyclic subpaths.

    A subpath is cut *before* a block that already occurs on it, so
    every emitted path visits each block at most once and consecutive
    paths overlap nowhere.  ``sum(map(len, result)) == len(trace)``.
    """
    paths: List[Path] = []
    current: List[int] = []
    on_path: set = set()
    for block in trace:
        if block in on_path:
            paths.append(tuple(current))
            current = [block]
            on_path = {block}
        else:
            current.append(block)
            on_path.add(block)
    if current:
        paths.append(tuple(current))
    return paths


@dataclass(frozen=True)
class HotPath:
    """One ranked entry of a path profile."""

    function: str
    path: Path
    count: int
    fraction: float  # of all acyclic path executions program-wide

    def __str__(self) -> str:
        blocks = ".".join(map(str, self.path))
        return (
            f"{self.function}: {blocks}  x{self.count} "
            f"({self.fraction:.1%})"
        )


@dataclass
class PathProfile:
    """Acyclic-path execution counts recovered from a partitioned WPP."""

    counts: Dict[Tuple[str, Path], int] = field(default_factory=dict)

    @property
    def total_executions(self) -> int:
        return sum(self.counts.values())

    def distinct_paths(self) -> int:
        return len(self.counts)

    def count(self, function: str, path: Path) -> int:
        """Executions of one specific path (0 when never taken)."""
        return self.counts.get((function, path), 0)

    def hot_paths(self, k: int = 10) -> List[HotPath]:
        """The ``k`` most-executed paths, descending; ties by key."""
        total = self.total_executions
        ranked = sorted(
            self.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            HotPath(func, path, count, count / total if total else 0.0)
            for (func, path), count in ranked[:k]
        ]

    def coverage(self, fraction: float) -> int:
        """Fewest paths whose executions cover >= ``fraction`` of all.

        The classic hot-path statement: "N paths cover 90% of the
        execution".
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        needed = fraction * self.total_executions
        acc = 0
        for i, hot in enumerate(self.hot_paths(k=len(self.counts)), start=1):
            acc += hot.count
            if acc >= needed:
                return i
        return len(self.counts)

    def function_paths(self, function: str) -> List[HotPath]:
        """All of one function's paths, hottest first."""
        return [h for h in self.hot_paths(k=len(self.counts)) if h.function == function]


def path_profile(partitioned: PartitionedWpp) -> PathProfile:
    """Recover the exact acyclic path profile of a recorded run.

    Per function, each unique trace is decomposed once; its subpath
    counts are multiplied by the number of activations that followed it
    (read off the DCG), so cost is proportional to the *compacted*
    size, not the original WPP.
    """
    # Activation count per (function index, trace id).
    weights: Dict[Tuple[int, int], int] = {}
    for func_idx, trace_id in zip(
        partitioned.dcg.node_func, partitioned.dcg.node_trace
    ):
        key = (func_idx, trace_id)
        weights[key] = weights.get(key, 0) + 1

    profile = PathProfile()
    for (func_idx, trace_id), weight in weights.items():
        name = partitioned.func_names[func_idx]
        trace = partitioned.traces[func_idx][trace_id]
        for path in acyclic_paths(trace):
            key = (name, path)
            profile.counts[key] = profile.counts.get(key, 0) + weight
    return profile


def path_profile_compacted(
    source: Union["PathLike", "object"],
) -> PathProfile:
    """Recover the path profile straight from a ``.twpp`` file.

    ``source`` is a ``.twpp`` path or an already-open
    :class:`~repro.compact.qserve.QueryEngine` (reused warm, not
    closed).  The DCG supplies per-pair activation weights; each
    function's sections are then pulled through the engine, decomposed
    into acyclic subpaths, and merged in function index order.
    Produces exactly the same profile as :func:`path_profile` over the
    partitioned form.
    """
    from ..compact.qserve import QueryEngine

    if isinstance(source, QueryEngine):
        engine, own = source, False
    else:
        engine, own = QueryEngine(source), True
    try:
        dcg = engine.dcg()
        # Activation count per (function index, pair id).
        per_func: Dict[int, Dict[int, int]] = {}
        for func_idx, pair_id in zip(dcg.node_func, dcg.node_trace):
            weights = per_func.setdefault(func_idx, {})
            weights[pair_id] = weights.get(pair_id, 0) + 1

        profile = PathProfile()
        for func_idx, weights in sorted(per_func.items()):
            name = engine.name_of_original_index(func_idx)
            fc = engine.extract(name)
            for pair_id, weight in weights.items():
                for path in acyclic_paths(fc.expand_pair(pair_id)):
                    key = (name, path)
                    profile.counts[key] = profile.counts.get(key, 0) + weight
        return profile
    finally:
        if own:
            engine.close()
