"""The memoized engine: verdict cache, batch API, parallel fan-out.

The memo's soundness rests on one fact: the verdict of "does the fact
hold immediately before trace position t" depends only on the trace
and the fact, never on which origin asked.  Every test here checks the
observable consequence -- memoized, batch and parallel results are
set-identical to a stateless engine's -- plus the accounting the bench
and CI gates rely on (memo_hits, memo_stats, analysis.* counters).
"""

import time

import pytest

from repro.analysis import (
    DemandDrivenEngine,
    GEN,
    KILL,
    LoadAvailable,
    TimestampSet,
    TimestampedCfg,
    VarHasDefinition,
    fact_frequencies,
    fact_frequencies_many,
    parse_fact,
    uniform_effects,
)
from repro.analysis.facts import ExpressionAvailable
from repro.obs import MetricsRegistry
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import figure9_program


def figure9_main():
    """(main function, its single path trace) of the Figure 9 program."""
    program = figure9_program()
    trace = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
    return program.function("main"), trace


def engines_for(trace, classes, metrics=None):
    """(memoized, stateless) engine pair over the same annotated CFG."""
    cfg = TimestampedCfg.from_trace(trace)
    return (
        DemandDrivenEngine(cfg, uniform_effects(classes), metrics=metrics),
        DemandDrivenEngine(cfg, uniform_effects(classes), memoize=False),
    )


def verdicts(result):
    return (
        result.holds.values(),
        result.fails.values(),
        result.unresolved.values(),
    )


LOOP_TRACE = (1, 2, 3, 2, 3, 4, 2, 3, 2, 4, 1, 2, 3, 4, 2, 3)
LOOP_CLASSES = {1: GEN, 4: KILL}


class TestMemoizedEquivalence:
    def test_repeat_query_identical_and_cheaper(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        first = memo.query(3)
        again = memo.query(3)
        reference = cold.query(3)
        assert verdicts(first) == verdicts(reference)
        assert verdicts(again) == verdicts(reference)
        assert first.memo_hits == 0 or first.queries_issued == 0
        assert again.memo_hits == len(again.requested)
        assert again.queries_issued == 0

    def test_all_blocks_sweep_identical(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        for node in memo.cfg.nodes():
            assert verdicts(memo.query(node)) == verdicts(cold.query(node))

    def test_overlapping_origins_share_traversals(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        memo.query(3)  # warms positions crossed by block 3's walks
        later = memo.query(2)
        assert verdicts(later) == verdicts(cold.query(2))
        assert later.memo_hits > 0

    def test_memo_stats_and_clear(self):
        memo, _ = engines_for(LOOP_TRACE, LOOP_CLASSES)
        assert memo.memo_stats() == {"nodes": 0, "positions": 0}
        memo.query(3)
        stats = memo.memo_stats()
        assert stats["nodes"] > 0 and stats["positions"] > 0
        memo.clear_memo()
        assert memo.memo_stats() == {"nodes": 0, "positions": 0}

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        memo, _ = engines_for(LOOP_TRACE, LOOP_CLASSES, metrics=metrics)
        memo.query(3)
        memo.query(3)
        assert metrics.counter("analysis.engine.queries") == 2
        assert metrics.counter("analysis.engine.propagated") > 0
        assert metrics.counter("analysis.engine.memo_hits") > 0


class TestOffNodeRequests:
    """A request naming positions where the node did not run is an
    error, raised before the query walks or writes anything: the memo
    is keyed by position, so a verdict recorded for the wrong node
    would corrupt later answers for the node that really ran there."""

    @pytest.mark.parametrize(
        "node, positions", [(3, [6]), (4, [3]), (3, [3, 6]), (9, [1])]
    )
    def test_rejected(self, node, positions):
        for engine in engines_for(LOOP_TRACE, LOOP_CLASSES):
            with pytest.raises(ValueError, match="did not run"):
                engine.query(node, TimestampSet.from_values(positions))
            assert engine.memo_stats() == {"nodes": 0, "positions": 0}

    def test_later_answers_unaffected(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        with pytest.raises(ValueError):
            memo.query(3, TimestampSet.single(6))
        for node in memo.cfg.nodes():
            assert verdicts(memo.query(node)) == verdicts(cold.query(node))

    def test_subset_of_instances_accepted(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        sub = TimestampSet.from_values([5, 8])
        assert verdicts(memo.query(3, sub)) == verdicts(cold.query(3, sub))


class TestLongLoop:
    """Wide vectors stay in the compressed domain on a long loop.

    On ``0 (1 2)^K 3`` a query of block 1 propagates about 2K wide
    vectors of up to K positions each.  Reading or writing the memo
    position by position for every vector, or growing a verdict set one
    origin at a time, is quadratic in K: minutes at K = 20,000 instead
    of about a second.
    """

    K = 20_000
    BOUND_S = 5.0

    @pytest.mark.parametrize(
        "classes, verdict", [({0: GEN}, "holds"), ({}, "unresolved")]
    )
    def test_sweep(self, classes, verdict):
        k = self.K
        trace = (0,) + (1, 2) * k + (3,)
        engine = DemandDrivenEngine(
            TimestampedCfg.from_trace(trace), uniform_effects(classes)
        )
        t0 = time.perf_counter()
        results = {node: engine.query(node) for node in (1, 2, 3, 0)}
        elapsed = time.perf_counter() - t0
        assert elapsed < self.BOUND_S, f"sweep took {elapsed:.1f} s"
        first = getattr(results[1], verdict)
        assert len(first) == k and first.slot_count() == 1
        assert results[1].queries_issued == 3 * k - 2
        assert results[2].memo_hits == k and results[2].queries_issued == 1
        assert engine.memo_stats() == {"nodes": 4, "positions": len(trace)}

    def test_wide_walk_between_known_regions(self):
        k = self.K
        trace = (0,) + (1, 2) * k + (3,) + (4, 5) * k + (6,)
        engine = DemandDrivenEngine(
            TimestampedCfg.from_trace(trace), uniform_effects({0: GEN, 3: GEN})
        )
        engine.query(6)  # knows the second loop
        engine.query(0)  # knows position 1
        t0 = time.perf_counter()
        result = engine.query(1)
        elapsed = time.perf_counter() - t0
        assert elapsed < self.BOUND_S, f"query took {elapsed:.1f} s"
        assert len(result.holds) == k and result.memo_hits == 0


class TestQueryMany:
    def test_batch_matches_stateless_singles(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        nodes = memo.cfg.nodes()
        batch = memo.query_many(nodes)
        assert [r.origin_node for r in batch] == nodes
        for node, res in zip(nodes, batch):
            assert verdicts(res) == verdicts(cold.query(node))

    def test_batch_accepts_tuple_requests(self):
        memo, cold = engines_for(LOOP_TRACE, LOOP_CLASSES)
        sub = TimestampSet.single(5)
        got = memo.query_many([(3, sub), (2, None), 4])
        assert verdicts(got[0]) == verdicts(cold.query(3, sub))
        assert verdicts(got[1]) == verdicts(cold.query(2))
        assert verdicts(got[2]) == verdicts(cold.query(4))

    def test_figure9_sweep(self):
        func, trace = figure9_main()
        fact = LoadAvailable(100)
        memo = DemandDrivenEngine.for_function_trace(func, trace, fact)
        cold = DemandDrivenEngine.for_function_trace(
            func, trace, fact, memoize=False
        )
        nodes = memo.cfg.nodes()
        for res, node in zip(memo.query_many(nodes), nodes):
            assert verdicts(res) == verdicts(cold.query(node))


class TestNeverHoldsRegression:
    def test_empty_request_is_not_never_holds(self):
        memo, _ = engines_for((1, 2, 3), {1: GEN})
        result = memo.query(2, TimestampSet())
        assert not result.requested
        assert not result.never_holds
        assert not result.always_holds

    def test_nonempty_semantics_unchanged(self):
        memo, _ = engines_for((1, 2, 3), {1: GEN, 2: KILL})
        assert memo.query(3).never_holds
        assert memo.query(2).always_holds


class TestParallelFanout:
    def _tasks(self):
        func, trace = figure9_main()
        return [
            (func, trace, LoadAvailable(100)),
            (func, trace, VarHasDefinition("t1")),
            (func, trace, LoadAvailable(100), [4, 7]),
            (func, tuple(LOOP_TRACE), VarHasDefinition("nope")),
        ] * 3

    def test_jobs_matches_serial(self):
        tasks = self._tasks()
        reference = fact_frequencies_many(tasks)
        metrics = MetricsRegistry()
        got = fact_frequencies_many(tasks, jobs=2, metrics=metrics)
        assert len(got) == len(reference)
        for a, b in zip(got, reference):
            assert a.entries == b.entries
            assert a.total_queries == b.total_queries
        assert metrics.counter("analysis.tasks") == len(tasks)
        assert metrics.counter("analysis.parallel_runs") == 1
        # Either the pool ran or the serial fallback was recorded --
        # both must produce identical reports.
        assert metrics.counter("analysis.parallel_fallback") in (0, 1)

    def test_jobs_one_stays_serial(self):
        tasks = self._tasks()[:4]
        metrics = MetricsRegistry()
        got = fact_frequencies_many(tasks, jobs=1, metrics=metrics)
        assert metrics.counter("analysis.parallel_runs") == 0
        reference = fact_frequencies_many(tasks)
        for a, b in zip(got, reference):
            assert a.entries == b.entries

    def test_engine_reuse_across_block_subsets(self):
        func, trace = figure9_main()
        fact = LoadAvailable(100)
        engine = DemandDrivenEngine.for_function_trace(func, trace, fact)
        first = fact_frequencies(func, trace, fact, engine=engine)
        second = fact_frequencies(
            func, trace, fact, blocks=[4, 7], engine=engine
        )
        fresh = fact_frequencies(func, trace, fact, blocks=[4, 7])
        # Verdicts are identical; only propagation accounting differs
        # (the warm engine resolves everything from its memo).
        for block in (4, 7):
            warm, ref = second.entries[block], fresh.entries[block]
            assert (warm.executions, warm.holds, warm.fails, warm.unresolved) \
                == (ref.executions, ref.holds, ref.fails, ref.unresolved)
        assert second.total_queries == 0
        assert first.entries[4].holds == fresh.entries[4].holds


class TestParseFact:
    def test_specs(self):
        assert parse_fact("load:100") == LoadAvailable(100)
        assert parse_fact("load:0x20") == LoadAvailable(32)
        assert parse_fact("expr:b, a") == ExpressionAvailable(("a", "b"))
        assert parse_fact("def:i") == VarHasDefinition("i")

    @pytest.mark.parametrize(
        "bad", ["load", "load:", "load:xyz", "expr:", "expr: ,", "heap:3"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fact(bad)
