"""Unit tests for batch data-flow frequency analysis."""

import pytest

from repro.analysis import (
    LoadAvailable,
    fact_frequencies,
    fact_frequencies_many,
)
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import figure9_program


@pytest.fixture(scope="module")
def figure9():
    program = figure9_program()
    trace = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
    return program.function("main"), trace


class TestFigure9Frequencies:
    def test_per_block_frequencies(self, figure9):
        func, trace = figure9
        report = fact_frequencies(func, trace, LoadAvailable(100))
        # Block 4 (the redundant load): always available.
        assert report.at(4).always
        assert report.at(4).frequency == 1.0
        # Block 7 (join): available on p2 (20), killed on p3 (40).
        b7 = report.at(7)
        assert b7.executions == 60
        assert b7.holds == 20 and b7.fails == 40
        # Block 1 (loop head): only the very first instance has no
        # history; every later entry follows a full iteration whose
        # trailing blocks decide availability.
        b1 = report.at(1)
        assert b1.executions == 100
        assert b1.unresolved == 1  # the very first instance

    def test_hot_facts_ranking(self, figure9):
        func, trace = figure9
        report = fact_frequencies(func, trace, LoadAvailable(100))
        hot = report.hot_facts(threshold=0.9)
        hot_ids = [e.block_id for e in hot]
        assert 4 in hot_ids  # the paper's optimization target
        assert 7 not in hot_ids  # only 33% there
        # Ranked by execution count.
        execs = [e.executions for e in hot]
        assert execs == sorted(execs, reverse=True)

    def test_subset_of_blocks(self, figure9):
        func, trace = figure9
        report = fact_frequencies(
            func, trace, LoadAvailable(100), blocks=[4, 7]
        )
        assert report.blocks() == [4, 7]
        assert report.total_queries > 0

    def test_never_property(self, figure9):
        func, trace = figure9
        # Nothing ever loads address 555.
        report = fact_frequencies(
            func, trace, LoadAvailable(555), blocks=[4]
        )
        assert report.at(4).never
        assert report.at(4).frequency == 0.0

    def test_conservation_per_block(self, figure9):
        func, trace = figure9
        report = fact_frequencies(func, trace, LoadAvailable(100))
        for entry in report.entries.values():
            assert (
                entry.holds + entry.fails + entry.unresolved
                == entry.executions
            )


class TestBatchFanout:
    """fact_frequencies_many: batch and one-at-a-time runs agree exactly."""

    def _tasks(self, figure9):
        func, trace = figure9
        return [
            (func, trace, LoadAvailable(100)),
            (func, trace, LoadAvailable(555), [4]),
            (func, trace, LoadAvailable(100), [4, 7]),
        ]

    def test_matches_single_calls(self, figure9):
        tasks = self._tasks(figure9)
        reports = fact_frequencies_many(tasks)
        assert len(reports) == len(tasks)
        for task, report in zip(tasks, reports):
            blocks = task[3] if len(task) > 3 else None
            direct = fact_frequencies(task[0], task[1], task[2], blocks=blocks)
            assert report.entries == direct.entries
            assert report.total_queries == direct.total_queries
