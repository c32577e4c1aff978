"""Dynamic program slicing over the timestamped dynamic CFG.

Section 4.3.2 shows that all three of Agrawal & Horgan's dynamic
slicing algorithms can be implemented on one representation -- the
timestamp-annotated dynamic control flow graph -- instead of three
specialized program dependence graphs:

* **Approach 1** marks executed PDG *nodes*: traverse the static PDG,
  visiting only nodes with a non-empty timestamp set.
* **Approach 2** marks executed PDG *edges*: find dependences by
  backward timestamp traversal (edge ``m -> n`` is usable only when
  ``n`` holds ``t`` and ``m`` holds ``t-1``), but once a dependence
  source is found, continue with *all* of its timestamps.
* **Approach 3** distinguishes statement *instances*: queries carry
  precise timestamps, and a discovered dependence spawns queries only
  for the single resolving instance.

Slicing operates at dynamic-basic-block granularity; the paper's
Figure 10 example has one statement per block, making blocks and
statements coincide, and the tests reproduce its three slices exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..compact.series import TimestampSet
from ..ir.control_dependence import control_dependence
from ..ir.dataflow import reaching_definitions
from ..ir.module import Function
from .dyncfg import TimestampedCfg


def governing_instances(
    parent_values: Sequence[int], instances: Iterable[int]
) -> List[int]:
    """Each instance's governing predicate instance, for precise slicing.

    For every ``t`` in ``instances``, the latest of ``parent_values``
    (ascending, as :meth:`TimestampSet.values` lists them) before ``t``;
    an instance no parent execution precedes contributes nothing.
    """
    chosen: List[int] = []
    for t in instances:
        i = bisect_left(parent_values, t)
        if i:
            chosen.append(parent_values[i - 1])
    return chosen


@dataclass
class SliceResult:
    """A computed dynamic slice."""

    criterion_node: int
    variables: Tuple[str, ...]
    slice_nodes: FrozenSet[int]
    queries_issued: int = 0

    def __contains__(self, node: int) -> bool:
        return node in self.slice_nodes

    def sorted(self) -> List[int]:
        return sorted(self.slice_nodes)


class DynamicSlicer:
    """Shared state for the three slicing algorithms over one trace.

    Backward dependence searches are cached across slicing requests:
    "since the same dependences may be relevant to different slicing
    requests, their recomputation must be avoided by caching the
    computed dependences ... our approach builds the dynamic dependence
    graph incrementally as slicing requests are processed" (Section
    4.3.2).  ``cache_hits`` counts searches answered from the cache.
    """

    def __init__(self, func: Function, trace: Sequence[int]):
        self.func = func
        self.trace = tuple(trace)
        self.cfg = TimestampedCfg.from_trace(trace)
        self.cd_parents = control_dependence(func)
        self._block_defs: Dict[int, FrozenSet[str]] = {
            bid: func.blocks[bid].defs() for bid in func.block_ids()
        }
        self._block_uses: Dict[int, FrozenSet[str]] = {
            bid: func.blocks[bid].uses() for bid in func.block_ids()
        }
        # (node, var, ts entries) -> tuple of (source node, instances);
        # the incrementally built dynamic dependence graph.
        self._dep_cache: Dict[Tuple, Tuple[Tuple[int, TimestampSet], ...]] = {}
        self.cache_hits = 0

    def _find_defs(
        self, node: int, ts: TimestampSet, var: str
    ) -> Tuple[Tuple[Tuple[int, TimestampSet], ...], int]:
        """Backward search for the defs of ``var`` reaching instances.

        Returns ``(dependences, queries issued)`` where each dependence
        is ``(source node, the instances of it that resolved)``.
        Results are memoized -- repeated slicing requests walk the
        cached dynamic dependence edges instead of the trace.
        """
        key = (node, var, ts.entries)
        cached = self._dep_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached, 0
        deps: List[Tuple[int, TimestampSet]] = []
        queries = 0
        work: List[Tuple[int, TimestampSet]] = [(node, ts)]
        while work:
            n, current = work.pop()
            shifted = current.shift(-1)
            if not shifted:
                continue
            for m in self.cfg.preds.get(n, ()):
                sub = shifted.intersect(self.cfg.ts(m))
                if not sub:
                    continue
                queries += 1
                if var in self.defs(m):
                    deps.append((m, sub))
                else:
                    work.append((m, sub))
        result = tuple(deps)
        self._dep_cache[key] = result
        return result, queries

    # ---- helpers ---------------------------------------------------------

    def executed(self, node: int) -> bool:
        return bool(self.cfg.ts(node))

    def defs(self, node: int) -> FrozenSet[str]:
        return self._block_defs[node]

    def uses(self, node: int) -> FrozenSet[str]:
        return self._block_uses[node]

    def _add_with_control(
        self,
        node: int,
        slice_nodes: Set[int],
        pending_control: List[int],
    ) -> None:
        """Add a node; queue its control-dependence parents for inclusion."""
        if node in slice_nodes:
            return
        slice_nodes.add(node)
        for parent in self.cd_parents.get(node, ()):
            pending_control.append(parent)

    # ---- Approach 1: executed nodes over the static PDG -------------------

    def slice_approach1(
        self, criterion_node: int, variables: Sequence[str]
    ) -> SliceResult:
        """Static-PDG traversal restricted to executed nodes."""
        rd = reaching_definitions(self.func)
        slice_nodes: Set[int] = set()
        pending_control: List[int] = []
        # (node, variable) pairs whose reaching definitions to chase.
        worklist: List[Tuple[int, str]] = []
        seen: Set[Tuple[int, str]] = set()
        queries = 0

        self._add_with_control(criterion_node, slice_nodes, pending_control)
        for var in variables:
            worklist.append((criterion_node, var))

        while worklist or pending_control:
            while pending_control:
                parent = pending_control.pop()
                if parent in slice_nodes or not self.executed(parent):
                    continue
                self._add_with_control(parent, slice_nodes, pending_control)
                for var in self.uses(parent):
                    worklist.append((parent, var))
            if not worklist:
                continue
            node, var = worklist.pop()
            if (node, var) in seen:
                continue
            seen.add((node, var))
            queries += 1
            for def_block in rd.def_blocks_of(node, var):
                if not self.executed(def_block):
                    continue  # approach 1's only dynamic information
                if def_block not in slice_nodes:
                    self._add_with_control(
                        def_block, slice_nodes, pending_control
                    )
                    for used in self.uses(def_block):
                        worklist.append((def_block, used))

        return SliceResult(
            criterion_node=criterion_node,
            variables=tuple(variables),
            slice_nodes=frozenset(slice_nodes),
            queries_issued=queries,
        )

    # ---- Approaches 2 and 3: timestamped backward traversal --------------

    def slice_approach2(
        self,
        criterion_node: int,
        variables: Sequence[str],
        criterion_ts: Optional[TimestampSet] = None,
    ) -> SliceResult:
        """Executed-edge slicing: dependences found dynamically, but a
        found source re-queries with *all* its timestamps."""
        return self._timestamped_slice(
            criterion_node, variables, criterion_ts, precise_instances=False
        )

    def slice_approach3(
        self,
        criterion_node: int,
        variables: Sequence[str],
        criterion_ts: Optional[TimestampSet] = None,
    ) -> SliceResult:
        """Instance-precise slicing: queries follow single instances."""
        return self._timestamped_slice(
            criterion_node, variables, criterion_ts, precise_instances=True
        )

    def _timestamped_slice(
        self,
        criterion_node: int,
        variables: Sequence[str],
        criterion_ts: Optional[TimestampSet],
        precise_instances: bool,
    ) -> SliceResult:
        if criterion_ts is None:
            criterion_ts = self.cfg.ts(criterion_node)
        slice_nodes: Set[int] = {criterion_node}
        queries = 0

        # (node, timestamps, variable) -- find the defs of `variable`
        # reaching the given instances of `node`.
        worklist: List[Tuple[int, TimestampSet, str]] = []
        visited: Set[Tuple[int, Tuple, str]] = set()

        def enqueue(node: int, ts: TimestampSet, var: str) -> None:
            key = (node, ts.entries, var)
            if ts and key not in visited:
                visited.add(key)
                worklist.append((node, ts, var))

        def on_dependence(source: int, instances: TimestampSet) -> None:
            """A def of the sought variable found at ``source``."""
            newly_added = source not in slice_nodes
            slice_nodes.add(source)
            if precise_instances:
                follow = instances
            else:
                follow = self.cfg.ts(source)
            if newly_added or precise_instances:
                for used in self.uses(source):
                    enqueue(source, follow, used)
                self._control_queries(
                    source, follow, precise_instances, slice_nodes, enqueue
                )

        # Seed: data queries for the criterion variables plus the
        # criterion's own control dependence.
        for var in variables:
            enqueue(criterion_node, criterion_ts, var)
        self._control_queries(
            criterion_node,
            criterion_ts,
            precise_instances,
            slice_nodes,
            enqueue,
        )

        while worklist:
            node, ts, var = worklist.pop()
            deps, issued = self._find_defs(node, ts, var)
            queries += issued
            for m, sub in deps:
                on_dependence(m, sub)

        return SliceResult(
            criterion_node=criterion_node,
            variables=tuple(variables),
            slice_nodes=frozenset(slice_nodes),
            queries_issued=queries,
        )

    def _control_queries(
        self,
        node: int,
        instances: TimestampSet,
        precise_instances: bool,
        slice_nodes: Set[int],
        enqueue,
    ) -> None:
        """Add the control-dependence parents governing ``instances``.

        For the instance-precise approach the governing parent instance
        is the nearest earlier execution of the parent predicate; for
        approach 2 all parent instances are taken.
        """
        for parent in self.cd_parents.get(node, ()):
            parent_ts = self.cfg.ts(parent)
            if not parent_ts:
                continue
            if precise_instances:
                follow = TimestampSet.from_values(
                    governing_instances(parent_ts.values(), instances)
                )
                if not follow:
                    continue
            else:
                follow = parent_ts
            newly_added = parent not in slice_nodes
            slice_nodes.add(parent)
            if newly_added or precise_instances:
                for used in self.uses(parent):
                    enqueue(parent, follow, used)
                self._control_queries(
                    parent, follow, precise_instances, slice_nodes, enqueue
                )
