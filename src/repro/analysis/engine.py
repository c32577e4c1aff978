"""Demand-driven backward propagation of profile-limited queries.

Implements Section 4.2: a query ``<T, n>_d`` asks, for each timestamp in
``T``, whether fact ``d`` holds immediately before that execution of
node ``n`` in the path trace.  Propagation decrements the timestamp
vector and pushes it to predecessors whose timestamp sets contain the
decremented values; a predecessor whose dynamic GEN (KILL) set covers a
slot resolves it true (false); the rest keeps propagating.  Because
each trace position is occupied by exactly one node, every timestamp
follows a single backward path -- slots split across predecessors but
never duplicate.

Wide timestamp vectors are manipulated *collectively* as compacted
series (:mod:`repro.compact.series`), which is the efficiency point
the paper makes with the ``(2:20:2) -> (1:19:2)`` example.  Most
propagated vectors hold one position, though, and the predecessor of
``(t, n)`` is simply ``(t - 1, node at t - 1)``: a one-position vector
steps straight there through the trace (the position-to-node table)
instead of being shifted and intersected with every predecessor's
timestamp set.

The engine also **memoizes verdicts by trace position**: the verdict of
a query at position ``t`` ("does the fact hold immediately before
``t``?") depends only on the trace and the fact, never on which origin
asked.  When a query ends, every position it walked is written into
one verdict table indexed by position, and every later query -- same
origin or an overlapping one -- looks its positions up and propagates
only the rest.  Wide vectors meet the table in the compressed domain
too: a lookup slices one series entry at a time, only over blocks of
the table that hold verdicts, and a wide residue is copied from its
origins' verdicts with one strided slice per series entry, so a long
regular loop costs per propagated vector, not per position.
:meth:`DemandDrivenEngine.query_many` leans on this to share
traversals across a whole batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..compact.series import TimestampSet
from ..ir.module import Function
from ..obs import MetricsRegistry
from .dyncfg import TimestampedCfg
from .facts import GEN, KILL, TRANSPARENT, Fact, classify_statements

#: Effect callback: given a node and the timestamps being examined at
#: it, split them into (generated, killed, transparent) subsets.
EffectFn = Callable[[int, TimestampSet], Tuple[TimestampSet, TimestampSet, TimestampSet]]

#: One batch request: a node id, or ``(node, timestamp set)``.
QueryRequest = Union[int, Tuple[int, Optional[TimestampSet]]]

#: Verdict codes of the memo table (``0``: not resolved yet).
_HOLDS, _FAILS, _UNRESOLVED = 1, 2, 3
_RUN_BYTE = (b"\x00", b"\x01", b"\x02", b"\x03")
#: Maximal runs of one verdict code in a memo slice.
_VERDICT_RUNS = re.compile(rb"\x00+|\x01+|\x02+|\x03+")
#: Each memo block summarizes ``1 << _BLOCK_BITS`` trace positions.
_BLOCK_BITS = 6
#: A series entry of at most this many positions is looked up without
#: consulting the blocks, and a one-entry residue of at most this many
#: is written without subtracting what its node's earlier residues
#: wrote.
_SMALL_RESIDUE = 64


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

    ``memoize=True`` (the default) keeps one verdict per trace position,
    shared by every query issued through this engine -- the fact is
    fixed per engine, so a position's verdict never changes.  Pass
    ``memoize=False`` for the stateless behaviour (every query walks
    the trace from scratch).  ``metrics`` (a
    :class:`~repro.obs.MetricsRegistry`) receives the
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
        #: Verdict code per trace position (index 0 unused), allocated
        #: by the first query.
        self._memo: Optional[bytearray] = None
        #: One byte per block of positions, 1 when some position of the
        #: block may have a verdict: wide lookups read only those blocks.
        self._blocks = bytearray()

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
        blocks (tests use this to model opaque statements).  A call
        counts only through its ``dest``, so for a fact that crosses
        calls (``fact.crosses_calls``) traces with call statements
        should instead be analysed through :mod:`repro.analysis.interproc`,
        which accounts for callee effects per activation.
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
        """Cache accounting: nodes with a resolved position, and
        positions resolved."""
        if self._memo is None:
            return {"nodes": 0, "positions": 0}
        known = self._memo[1:]
        return {
            "nodes": len(set(compress(self.cfg.trace, known))),
            "positions": len(known) - known.count(0),
        }

    def clear_memo(self) -> None:
        """Drop every cached verdict (used by invalidation tests)."""
        self._memo = None
        self._blocks = bytearray()

    def _peel(
        self,
        current: TimestampSet,
        offset: int,
        hits: Dict[int, List[Tuple[int, int, int]]],
    ) -> Tuple[TimestampSet, int]:
        """Resolve the memo-known positions of ``current``.

        Each maximal run of one verdict along a series entry becomes one
        series entry of ``hits[verdict]`` (origin coords).  Returns (the
        residue that still needs propagation, how many positions were
        known).
        """
        memo = self._memo
        known: List[Tuple[int, int, int]] = []
        count = 0
        for lo, hi, step in current.entries:
            if hi - lo < _SMALL_RESIDUE * step:
                spans: Iterable[Tuple[int, int]] = ((lo, hi),)
            else:
                spans = self._marked_spans(lo, hi, step)
            for first, last in spans:
                verdicts = memo[first:last + 1:step]
                for begin, end, verdict in _verdict_runs(verdicts):
                    a = first + begin * step
                    b = first + (end - 1) * step
                    entry_step = step if a < b else 1
                    known.append((a, b, entry_step))
                    hits[verdict].append((a + offset, b + offset, entry_step))
                    count += end - begin
        if not known:
            return current, 0
        if count == len(current):
            return TimestampSet(), count
        return current.subtract(TimestampSet(tuple(sorted(known)))), count

    def _marked_spans(
        self, lo: int, hi: int, step: int
    ) -> Iterator[Tuple[int, int]]:
        """``(first, last)`` of the series entry ``(lo, hi, step)``'s
        stretches that fall in marked blocks: a wide lookup reads
        nothing where the memo is empty."""
        blocks = self._blocks
        block, last_block = lo >> _BLOCK_BITS, (hi >> _BLOCK_BITS) + 1
        while True:
            block = blocks.find(1, block, last_block)
            if block < 0:
                return
            end_block = blocks.find(0, block, last_block)
            if end_block < 0:
                end_block = last_block
            first = max(lo, block << _BLOCK_BITS)
            first += (lo - first) % step
            last = min(hi, (end_block << _BLOCK_BITS) - 1)
            last -= (last - lo) % step
            if first <= last:
                yield first, last
            block = end_block

    def _fold(
        self,
        runs: List[Tuple[int, int, int]],
        trail: List[Tuple[int, TimestampSet, int]],
        result: QueryResult,
    ) -> None:
        """Write the verdict of every position a finished query walked.

        A run ``(bottom, top, verdict)`` is a one-position walk: every
        position in it shares its origin's verdict, written with one
        slice assignment.  When wide residues walked, the origins are
        written next, one strided slice assignment per series entry of
        ``holds``, ``fails`` and ``unresolved``.  A trail item
        ``(n, S, k)`` means: the verdict of each position ``t`` of ``S``
        is that of origin ``t + k``, so each series entry of ``S`` is
        copied from the origins ``k`` positions later with one strided
        slice.  A position written twice gets the same verdict both
        times.  Every write marks its blocks in ``_blocks``.
        """
        memo = self._memo
        blocks = self._blocks
        for bottom, top, verdict in runs:
            memo[bottom:top + 1] = _RUN_BYTE[verdict] * (top - bottom + 1)
            _mark(blocks, bottom, top)
        if not trail:
            return  # every origin was known or walked as one position
        for code, origins in (
            (_HOLDS, result.holds),
            (_FAILS, result.fails),
            (_UNRESOLVED, result.unresolved),
        ):
            for lo, hi, step in origins.entries:
                memo[lo:hi + 1:step] = _RUN_BYTE[code] * ((hi - lo) // step + 1)
                _mark(blocks, lo, hi)
        covered: Dict[int, TimestampSet] = {}
        for node, positions, offset in trail:
            if not offset:
                continue  # origins, written above
            entries = positions.entries
            lo, hi, step = entries[0]
            if len(entries) > 1 or hi - lo >= _SMALL_RESIDUE * step:
                # Skip what an earlier residue of the node wrote: on a
                # long loop the residues nest, and copying each in full
                # would cost the square of the loop's length.
                seen = covered.get(node)
                if seen is None:
                    covered[node] = positions
                else:
                    positions = positions.subtract(seen)
                    if not positions:
                        continue
                    covered[node] = seen.union(positions)
                    entries = positions.entries
            for lo, hi, step in entries:
                memo[lo:hi + 1:step] = memo[lo + offset:hi + offset + 1:step]
                _mark(blocks, lo, hi)

    # ---- queries -------------------------------------------------------

    def query(
        self,
        node: int,
        ts: Optional[TimestampSet] = None,
        log: Optional[List[Tuple[int, TimestampSet]]] = None,
    ) -> QueryResult:
        """Evaluate ``<T, n>_d``; ``ts`` defaults to all of ``n``'s instances.

        A ``ts`` holding a position where ``n`` did not run raises
        :class:`ValueError` before any propagation.  When ``log`` is a
        list, every propagated query ``<T', m>`` is appended to it as
        ``(m, T')`` -- the exact vectors the paper's Figure 9 displays.
        Memoized positions resolve before propagation, so a repeated
        query logs nothing new.
        """
        cfg = self.cfg
        if ts is None:
            requested = cfg.ts(node)
        else:
            requested = ts
            stray = ts.subtract(cfg.ts(node))
            if stray:
                raise ValueError(
                    f"node {node} did not run at position {stray.min()}"
                )
        result = QueryResult(origin_node=node, requested=requested)
        if not requested:
            return result
        memo = None
        if self.memoize:
            if self._memo is None:
                self._memo = bytearray(cfg.trace_len + 1)
                self._blocks = bytearray((cfg.trace_len >> _BLOCK_BITS) + 1)
            memo = self._memo
        trace = cfg.trace
        preds = cfg.preds
        node_ts = cfg.node_ts
        effect = self.effect
        # The resolved origins as series entries, by verdict code; each
        # origin resolves exactly once, so the entries are disjoint.
        origins: Dict[int, List[Tuple[int, int, int]]] = {
            _HOLDS: [], _FAILS: [], _UNRESOLVED: []
        }
        # What the query walked, for the memo: one-position walks as
        # position ranges, wide residues with their node and offset.
        runs: List[Tuple[int, int, int]] = []
        trail: List[Tuple[int, TimestampSet, int]] = []
        issued = hits = 0

        # Work items: (node, timestamps in current coords, offset back to
        # origin coords).  Each propagated item is one "query" in the
        # paper's counting.
        work: List[Tuple[int, TimestampSet, int]] = [(node, requested, 0)]
        while work:
            n, current, offset = work.pop()
            lo, hi, _step = current.entries[0]
            if lo == hi and len(current.entries) == 1:
                # One position: walk it to its verdict right away, as
                # the stack would, straight to the node at ``t - 1``.
                t = top = lo
                while True:
                    if memo is not None and memo[t]:
                        verdict = memo[t]
                        hits += 1
                        t += 1  # position t itself was not walked
                        break
                    if t == 1:
                        verdict = _UNRESOLVED
                        break
                    m = trace[t - 2]
                    if m not in preds[n]:
                        verdict = 0  # lost: check_conservation reports it
                        break
                    issued += 1
                    sub = TimestampSet(((t - 1, t - 1, 1),))
                    if log is not None:
                        log.append((m, sub))
                    gen_ts, kill_ts, trans_ts = effect(m, sub)
                    if not trans_ts:
                        verdict = _HOLDS if gen_ts else _FAILS if kill_ts else 0
                        break
                    n = m
                    t -= 1
                if verdict:
                    origins[verdict].append((top + offset, top + offset, 1))
                if memo is not None and t <= top:
                    runs.append((t, top, verdict))
                continue

            if memo is not None:
                current, known = self._peel(current, offset, origins)
                hits += known
                if not current:
                    continue
                trail.append((n, current, offset))
            # Instances at trace position 1 have no predecessor: the
            # query reaches the start of the path trace unresolved.
            # Entries are sorted by ``lo``, so position 1 can only be
            # the first entry's.
            if current.entries[0][0] == 1:
                origins[_UNRESOLVED].append((1 + offset, 1 + offset, 1))
            shifted = current.shift(-1)
            if not shifted:
                continue
            for m in preds[n]:
                sub = shifted.intersect(node_ts[m])
                if not sub:
                    continue
                issued += 1
                if log is not None:
                    log.append((m, sub))
                gen_ts, kill_ts, trans_ts = effect(m, sub)
                if gen_ts:
                    origins[_HOLDS].extend(gen_ts.shift(offset + 1).entries)
                if kill_ts:
                    origins[_FAILS].extend(kill_ts.shift(offset + 1).entries)
                if trans_ts:
                    work.append((m, trans_ts, offset + 1))

        result.holds = _from_disjoint(origins[_HOLDS])
        result.fails = _from_disjoint(origins[_FAILS])
        result.unresolved = _from_disjoint(origins[_UNRESOLVED])
        result.queries_issued = issued
        result.memo_hits = hits
        result.check_conservation()
        if memo is not None:
            self._fold(runs, trail, result)
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
        queries one at a time on a fresh engine; the shared verdict
        memo means a position resolved by one query -- e.g. in the
        all-blocks sweep of a frequency analysis, where every traversal
        crosses other blocks' positions -- is looked up, not walked
        again, by every later query.  The memo is written only when a
        query ends, so it shares walks across queries only: within one
        query, two origin bundles that reach the same position both
        walk it.
        """
        results: List[QueryResult] = []
        for request in requests:
            if isinstance(request, tuple):
                node, ts = request
            else:
                node, ts = request, None
            results.append(self.query(node, ts))
        return results


def _mark(blocks: bytearray, lo: int, hi: int) -> None:
    """Mark the memo blocks spanning positions ``lo..hi``."""
    first, last = lo >> _BLOCK_BITS, (hi >> _BLOCK_BITS) + 1
    blocks[first:last] = b"\x01" * (last - first)


def _verdict_runs(verdicts: bytearray) -> List[Tuple[int, int, int]]:
    """``(begin, end, verdict)`` of each maximal run of one nonzero
    verdict code in ``verdicts``."""
    size = len(verdicts)
    head = verdicts[0]
    if verdicts.count(head) == size:
        return [(0, size, head)] if head else []
    return [
        (run.start(), run.end(), verdicts[run.start()])
        for run in _VERDICT_RUNS.finditer(verdicts)
        if verdicts[run.start()]
    ]


def _from_disjoint(entries: List[Tuple[int, int, int]]) -> TimestampSet:
    """The set of pairwise disjoint series ``entries``; one-position
    entries are recompressed into series."""
    if not entries:
        return TimestampSet()
    points = [lo for lo, hi, _step in entries if lo == hi]
    if len(points) == len(entries):
        return TimestampSet.from_values(points)
    series = TimestampSet(tuple(sorted(e for e in entries if e[0] != e[1])))
    if not points:
        return series
    return series.union(TimestampSet.from_values(points))


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
