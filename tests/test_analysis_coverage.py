"""Unit tests for coverage reporting from WPPs."""

import pytest

from repro.analysis import coverage_report
from repro.trace import collect_wpp, partition_wpp
from repro.workloads import figure10_program, figure12_program, workload
from repro.workloads.paper_examples import FIGURE10_INPUTS


class TestFigureCoverage:
    def test_figure10_full_coverage(self):
        program = figure10_program()
        part = partition_wpp(collect_wpp(program, inputs=FIGURE10_INPUTS))
        report = coverage_report(part, program)
        fc = report.functions["main"]
        # Every statement executed (the paper notes this for slicing
        # approach 1), so block coverage is 100%.
        assert fc.block_coverage == 1.0
        assert fc.blocks_hit == 14
        # The loop-exit and both if arms executed: full edge coverage.
        assert fc.edge_coverage == 1.0

    def test_figure12_partial_coverage(self):
        program = figure12_program()
        part = partition_wpp(collect_wpp(program, args=[1]))
        report = coverage_report(part, program)
        fc = report.functions["main"]
        # Path 1.2.3: block 4 never ran.
        assert fc.blocks_hit == 3
        assert 4 not in {block for block, _count in fc.block_counts}
        assert fc.block_coverage == pytest.approx(3 / 4)
        # Edges 1->4 and 4->3 unexecuted.
        assert fc.edges_hit == 2 and fc.edges_total == 4

    def test_block_counts_weighted_by_activations(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        report = coverage_report(part, caller_program)
        leaf = report.functions["leaf"]
        counts = dict(leaf.block_counts)
        assert counts[1] == 7  # entry of every activation
        assert counts[2] + counts[3] == 7  # the two arms split
        assert counts[4] == 7

    def test_uncalled_functions_listed(self):
        program, _spec = workload("gcc-like", scale=0.02)
        part = partition_wpp(collect_wpp(program))
        report = coverage_report(part, program)
        assert report.uncalled_functions  # tiny runs miss functions
        assert report.total_block_coverage < 1.0

    def test_render(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        report = coverage_report(part, caller_program)
        text = report.render()
        assert "overall block coverage" in text
        assert "leaf" in text and "main" in text
