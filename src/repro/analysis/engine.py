"""Demand-driven backward propagation of profile-limited queries.

Implements Section 4.2: a query ``<T, n>_d`` asks, for each timestamp in
``T``, whether fact ``d`` holds immediately before that execution of
node ``n`` in the path trace.  Propagation decrements the timestamp
vector and pushes it to predecessors whose timestamp sets contain the
decremented values; a predecessor whose dynamic GEN (KILL) set covers a
slot resolves it true (false); the rest keeps propagating.  Because
each trace position is occupied by exactly one node, every timestamp
follows a single backward path -- slots split across predecessors but
never duplicate, so the analysis cost is bounded by the trace length.

Timestamp vectors are manipulated *collectively* as compacted series
(:mod:`repro.analysis.tsvector`), which is the efficiency point the
paper makes with the ``(2:20:2) -> (1:19:2)`` example.

The engine also **memoizes resolved propagation residues**: the verdict
of a query at position ``t`` ("does the fact hold immediately before
``t``?") depends only on the trace and the fact, never on which origin
asked, so once any traversal resolves a bundle of positions their
holds/fails/unresolved classification is cached per node and every
later query -- same origin or an overlapping one -- peels the known
positions off its vector before propagating the rest.  Repeated and
overlapping queries therefore cost series intersections instead of
fresh backward walks; :meth:`DemandDrivenEngine.query_many` leans on
this to share traversals across a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..ir.module import Function
from ..obs import MetricsRegistry
from .dyncfg import TimestampedCfg
from .facts import GEN, KILL, TRANSPARENT, Fact, classify_statements
from .tsvector import TimestampSet

#: Effect callback: given a node and the timestamps being examined at
#: it, split them into (generated, killed, transparent) subsets.
EffectFn = Callable[[int, TimestampSet], Tuple[TimestampSet, TimestampSet, TimestampSet]]

#: One batch request: a node id, or ``(node, timestamp set)``.
QueryRequest = Union[int, Tuple[int, Optional[TimestampSet]]]

#: Per-node memo record: (holds, fails, unresolved) position subsets.
_MemoEntry = Tuple[TimestampSet, TimestampSet, TimestampSet]


@dataclass
class QueryResult:
    """Outcome of one profile-limited query ``<T, n>_d``.

    All sets are in the *origin* coordinate system: a timestamp ``t``
    appears in ``holds`` when the fact holds just before the execution
    of the origin node at trace position ``t``.
    """

    origin_node: int
    requested: TimestampSet
    holds: TimestampSet = field(default_factory=TimestampSet)
    fails: TimestampSet = field(default_factory=TimestampSet)
    unresolved: TimestampSet = field(default_factory=TimestampSet)
    queries_issued: int = 0
    #: Requested instances whose verdict came from the engine's memo of
    #: previously resolved traversals rather than fresh propagation.
    memo_hits: int = 0

    @property
    def always_holds(self) -> bool:
        """Fact holds at every requested instance."""
        return len(self.holds) == len(self.requested) and bool(self.requested)

    @property
    def never_holds(self) -> bool:
        """Fact holds at no requested instance.

        An *empty* request carries no evidence either way, so it is
        neither ``always_holds`` nor ``never_holds``.
        """
        return bool(self.requested) and not self.holds

    @property
    def frequency(self) -> float:
        """Fraction of requested instances where the fact holds.

        This is the "how often does a data flow fact hold" answer the
        paper's data-flow frequency application computes.
        """
        total = len(self.requested)
        return len(self.holds) / total if total else 0.0

    def check_conservation(self) -> None:
        """Every requested instance must be accounted for exactly once."""
        total = len(self.holds) + len(self.fails) + len(self.unresolved)
        if total != len(self.requested):
            raise AssertionError(
                f"query lost instances: {total} != {len(self.requested)}"
            )


class DemandDrivenEngine:
    """Backward GEN-KILL query evaluator over one timestamped dynamic CFG.

    ``memoize=True`` (the default) keeps a per-node cache of resolved
    propagation residues that is shared by every query issued through
    this engine -- the fact is fixed per engine, so the cache key is
    effectively ``(node, fact)``.  Pass ``memoize=False`` for the
    stateless behaviour (every query walks the trace from scratch).
    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) receives the
    ``analysis.engine.*`` counters described in ``docs/FORMATS.md``.
    """

    def __init__(
        self,
        cfg: TimestampedCfg,
        effect: EffectFn,
        memoize: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.cfg = cfg
        self.effect = effect
        self.memoize = memoize
        self.metrics = metrics
        self._memo: Dict[int, _MemoEntry] = {}

    @classmethod
    def for_function_trace(
        cls,
        func: Function,
        trace: Sequence[int],
        fact: Fact,
        effect_overrides: Optional[Dict[int, str]] = None,
        memoize: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "DemandDrivenEngine":
        """Engine for an intraprocedural path trace of ``func``.

        Node effects are classified statically per block from the fact's
        GEN/KILL predicates; ``effect_overrides`` can pin individual
        blocks (tests use this to model opaque statements).  Traces with
        call statements should instead be analysed through
        :mod:`repro.analysis.interproc`, which accounts for callee
        effects per activation.
        """
        cfg = TimestampedCfg.from_trace(trace)
        classes: Dict[int, str] = {}
        for block_id in cfg.nodes():
            if effect_overrides and block_id in effect_overrides:
                classes[block_id] = effect_overrides[block_id]
            else:
                classes[block_id] = classify_statements(
                    func.block(block_id).statements, fact
                )
        return cls(
            cfg, uniform_effects(classes), memoize=memoize, metrics=metrics
        )

    # ---- memo ----------------------------------------------------------

    def memo_stats(self) -> Dict[str, int]:
        """Cache accounting: nodes cached and positions resolved."""
        return {
            "nodes": len(self._memo),
            "positions": sum(
                len(h) + len(f) + len(u) for h, f, u in self._memo.values()
            ),
        }

    def clear_memo(self) -> None:
        """Drop every cached residue (used by invalidation tests)."""
        self._memo.clear()

    def _consult_memo(
        self, node: int, current: TimestampSet, offset: int, result: QueryResult
    ) -> TimestampSet:
        """Peel memo-known positions off ``current`` into ``result``.

        Returns the residue that still needs propagation.
        """
        entry = self._memo.get(node)
        if entry is None:
            return current
        known_holds, known_fails, known_unres = entry
        hits = 0
        h = current.intersect(known_holds)
        if h:
            result.holds = result.holds.union(h.shift(offset))
            current = current.subtract(h)
            hits += len(h)
        f = current.intersect(known_fails)
        if f:
            result.fails = result.fails.union(f.shift(offset))
            current = current.subtract(f)
            hits += len(f)
        u = current.intersect(known_unres)
        if u:
            result.unresolved = result.unresolved.union(u.shift(offset))
            current = current.subtract(u)
            hits += len(u)
        result.memo_hits += hits
        return current

    def _fold_trail(
        self,
        trail: List[Tuple[int, TimestampSet, int]],
        result: QueryResult,
    ) -> None:
        """Record every propagated residue's final verdict in the memo.

        A trail item ``(n, S, k)`` means: the verdict of querying node
        ``n`` at positions ``S`` equals the verdict of the origin
        instances ``S + k`` -- so the finished result classifies them.
        """
        holds, fails, unresolved = result.holds, result.fails, result.unresolved
        empty = TimestampSet()
        for node, instances, offset in trail:
            lo, hi, _step = instances.entries[0]
            if len(instances.entries) == 1 and lo == hi:
                # One position: look its origin verdict up.
                origin = lo + offset
                if origin in holds:
                    h, f, u = instances, empty, empty
                elif origin in fails:
                    h, f, u = empty, instances, empty
                else:
                    h, f, u = empty, empty, instances
            else:
                # Shift the residue, not the (wider) result sets.
                moved = instances.shift(offset)
                h = moved.intersect(holds).shift(-offset)
                f = moved.intersect(fails).shift(-offset)
                u = moved.intersect(unresolved).shift(-offset)
            entry = self._memo.get(node)
            if entry is None:
                self._memo[node] = (h, f, u)
            else:
                known_holds, known_fails, known_unres = entry
                self._memo[node] = (
                    known_holds.union(h),
                    known_fails.union(f),
                    known_unres.union(u),
                )

    # ---- queries -------------------------------------------------------

    def query(
        self,
        node: int,
        ts: Optional[TimestampSet] = None,
        log: Optional[List[Tuple[int, TimestampSet]]] = None,
    ) -> QueryResult:
        """Evaluate ``<T, n>_d``; ``ts`` defaults to all of ``n``'s instances.

        When ``log`` is a list, every propagated query ``<T', m>`` is
        appended to it as ``(m, T')`` -- the exact vectors the paper's
        Figure 9 displays.  Memoized positions resolve before
        propagation, so a repeated query logs nothing new.
        """
        requested = self.cfg.ts(node) if ts is None else ts
        result = QueryResult(origin_node=node, requested=requested)
        if not requested:
            return result
        memoize = self.memoize
        trail: List[Tuple[int, TimestampSet, int]] = []

        # Work items: (node, timestamps in current coords, offset back to
        # origin coords).  Each propagated item is one "query" in the
        # paper's counting.
        work: List[Tuple[int, TimestampSet, int]] = [(node, requested, 0)]
        while work:
            n, current, offset = work.pop()
            if memoize:
                current = self._consult_memo(n, current, offset, result)
                if not current:
                    continue
                trail.append((n, current, offset))
            # Instances at trace position 1 have no predecessor: the
            # query reaches the start of the path trace unresolved.
            # Entries are sorted by ``lo``, so position 1 can only be
            # the first entry's.
            if current.entries[0][0] == 1:
                result.unresolved = result.unresolved.union(
                    TimestampSet.single(1 + offset)
                )
            shifted = current.shift(-1)
            if not shifted:
                continue
            for m in self.cfg.preds.get(n, ()):
                sub = shifted.intersect(self.cfg.ts(m))
                if not sub:
                    continue
                result.queries_issued += 1
                if log is not None:
                    log.append((m, sub))
                gen_ts, kill_ts, trans_ts = self.effect(m, sub)
                if gen_ts:
                    result.holds = result.holds.union(gen_ts.shift(offset + 1))
                if kill_ts:
                    result.fails = result.fails.union(kill_ts.shift(offset + 1))
                if trans_ts:
                    work.append((m, trans_ts, offset + 1))

        if memoize and trail:
            self._fold_trail(trail, result)
        result.check_conservation()
        if self.metrics is not None:
            self.metrics.inc("analysis.engine.queries")
            self.metrics.inc(
                "analysis.engine.propagated", result.queries_issued
            )
            self.metrics.inc("analysis.engine.memo_hits", result.memo_hits)
        return result

    def query_many(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Evaluate a batch of queries, sharing backward traversals.

        Each request is a node id or a ``(node, timestamp set)`` pair
        (``None`` timestamps mean all of the node's instances).  Results
        come back in request order and are set-identical to issuing the
        queries one at a time on a fresh engine; the shared residue memo
        means a position resolved by one query -- e.g. in the all-blocks
        sweep of a frequency analysis, where every traversal crosses
        other blocks' positions -- is looked up, not walked again, by
        every later query.  The memo shares walks across queries only:
        within one query, overlapping origin bundles each walk a shared
        position once.
        """
        results: List[QueryResult] = []
        for request in requests:
            if isinstance(request, tuple):
                node, ts = request
            else:
                node, ts = request, None
            results.append(self.query(node, ts))
        return results


def uniform_effects(classes: Dict[int, str]) -> EffectFn:
    """Effect function for nodes whose classification is timestamp-invariant."""

    empty = TimestampSet()

    def effect(node: int, ts: TimestampSet):
        cls = classes.get(node, TRANSPARENT)
        if cls == GEN:
            return ts, empty, empty
        if cls == KILL:
            return empty, ts, empty
        return empty, empty, ts

    return effect
