"""Unit tests for the timestamp-annotated dynamic CFG."""

import pytest

from repro.analysis import TimestampedCfg, flowgraph_stats
from repro.compact import trace_to_twpp, twpp_to_trace
from repro.workloads import FIGURE10_TRACE, figure10_program


class TestConstruction:
    def test_figure10_annotations(self):
        """Timestamps match the paper's Figure 10 annotations exactly."""
        cfg = TimestampedCfg.from_trace(FIGURE10_TRACE)
        assert cfg.ts(1).values() == [1]
        assert cfg.ts(4).entries == ((4, 28, 8),)
        assert cfg.ts(5).entries == ((5, 21, 8),)
        assert cfg.ts(6).entries == ((6, 22, 8),)
        assert cfg.ts(7).values() == [7, 23]
        assert cfg.ts(8).values() == [15]
        assert cfg.ts(9).entries == ((8, 24, 8),)
        assert cfg.ts(11).entries == ((10, 26, 8),)
        assert cfg.ts(13).values() == [29]
        assert cfg.ts(14).values() == [30]

    def test_edges_are_dynamic_not_static(self):
        cfg = TimestampedCfg.from_trace((1, 2, 1, 2))
        assert cfg.preds[1] == (2,)
        assert cfg.succs[2] == (1,)
        assert cfg.edge_count() == 2

    def test_never_executed_block_has_empty_ts(self):
        cfg = TimestampedCfg.from_trace((1, 2))
        assert not cfg.ts(99)

    def test_from_twpp_matches_from_trace(self):
        """A stored TWPP body's sets are the analysis CFG's node sets,
        entry for entry, and its inversion builds the same CFG."""
        trace = (1, 2, 3, 2, 3, 4)
        a = TimestampedCfg.from_trace(trace)
        twpp = trace_to_twpp(trace)
        assert a.node_ts == dict(twpp.entries)
        b = TimestampedCfg.from_trace(twpp_to_trace(twpp))
        assert a.nodes() == b.nodes()
        assert a.node_ts == b.node_ts
        assert a.preds == b.preds

    def test_block_order(self):
        cfg = TimestampedCfg.from_trace((5, 3, 5, 1))
        assert cfg.block_order() == [5, 3, 1]


class TestValidation:
    def test_valid(self):
        TimestampedCfg.from_trace(FIGURE10_TRACE).validate()

    def test_coverage_mismatch_detected(self):
        cfg = TimestampedCfg.from_trace((1, 2, 3))
        cfg.trace_len = 5
        with pytest.raises(ValueError, match="cover"):
            cfg.validate()


class TestFlowGraphStats:
    def test_dynamic_smaller_than_static_for_partial_traces(self):
        program = figure10_program()
        func = program.function("main")
        # A trace touching only the loop-free prefix.
        stats = flowgraph_stats(func, [(1, 2, 3, 4, 13, 14)])
        assert stats.dynamic_nodes < stats.static_nodes
        assert stats.dynamic_edges < stats.static_edges

    def test_multiple_traces_summed(self):
        program = figure10_program()
        func = program.function("main")
        t = (1, 2, 3, 4, 13, 14)
        one = flowgraph_stats(func, [t])
        two = flowgraph_stats(func, [t, t])
        assert two.dynamic_nodes == 2 * one.dynamic_nodes
        assert two.static_nodes == one.static_nodes

    def test_vector_compaction_reported(self):
        program = figure10_program()
        func = program.function("main")
        stats = flowgraph_stats(func, [FIGURE10_TRACE])
        # Loop blocks carry 3-4 timestamps each in one series entry.
        assert stats.avg_vector_slots < stats.avg_vector_raw

    def test_empty_traces(self):
        program = figure10_program()
        stats = flowgraph_stats(program.function("main"), [])
        assert stats.dynamic_nodes == 0
        assert stats.avg_vector_slots == 0.0
