"""Unit tests for the full compaction pipeline and its accounting."""

import pytest

from repro.compact import compact_wpp, twpp_to_trace
from repro.compact.format import encode_series
from repro.trace import collect_wpp, partition_wpp, reconstruct_wpp
from repro.workloads import (
    FIGURE1_F_TRACE_A,
    FIGURE1_F_TRACE_B,
    figure1_program,
)


@pytest.fixture
def figure1_compacted():
    program = figure1_program()
    wpp = collect_wpp(program)
    part = partition_wpp(wpp)
    compacted, stats = compact_wpp(part)
    return program, wpp, part, compacted, stats


class TestFigure1Pipeline:
    def test_shared_body_distinct_dicts(self, figure1_compacted):
        """Figure 5: f keeps one trace body and two dictionaries."""
        _p, _w, _part, compacted, _stats = figure1_compacted
        fc = compacted.function("f")
        assert [twpp_to_trace(t) for t in fc.twpp_table] == [(1, 2, 2, 2, 10)]
        assert len(fc.dict_table) == 2
        assert fc.pairs == [(0, 0), (0, 1)]
        assert fc.call_count == 5

    def test_twpp_table_parallel_to_bodies(self, figure1_compacted):
        _p, _w, _part, compacted, _stats = figure1_compacted
        fc = compacted.function("f")
        assert len(fc.twpp_table) == 1
        assert {b: encode_series(s) for b, s in fc.twpp_table[0].entries} == {
            1: [-1],
            2: [2, -4],
            10: [-5],
        }

    def test_expand_pair_recovers_raw_traces(self, figure1_compacted):
        _p, _w, _part, compacted, _stats = figure1_compacted
        fc = compacted.function("f")
        expanded = {fc.expand_pair(p) for p in range(len(fc.pairs))}
        assert expanded == {FIGURE1_F_TRACE_A, FIGURE1_F_TRACE_B}

    def test_traces_inverts_each_body_once(
        self, figure1_compacted, monkeypatch
    ):
        """``traces()`` lists every pair's trace in pair order, inverting
        f's one shared body once for both of its pairs."""
        from repro.compact import pipeline

        _p, _w, _part, compacted, _stats = figure1_compacted
        fc = compacted.function("f")
        expected = [fc.expand_pair(p) for p in range(len(fc.pairs))]
        inverted = []
        real = pipeline.twpp_to_trace

        def counting(twpp):
            inverted.append(twpp)
            return real(twpp)

        monkeypatch.setattr(pipeline, "twpp_to_trace", counting)
        assert fc.traces() == expected
        assert inverted == fc.twpp_table  # one body, two pairs

    def test_unknown_function_raises(self, figure1_compacted):
        _p, _w, _part, compacted, _stats = figure1_compacted
        with pytest.raises(KeyError):
            compacted.function("ghost")


class TestLosslessness:
    def test_to_partitioned_reconstructs_wpp(self, figure1_compacted):
        program, wpp, _part, compacted, _stats = figure1_compacted
        part2 = compacted.to_partitioned()
        back = reconstruct_wpp(part2, program)
        assert back.to_tuples() == wpp.to_tuples()

    def test_generated_workload_roundtrip(self, small_workload):
        program, _spec, wpp = small_workload
        part = partition_wpp(wpp)
        compacted, _stats = compact_wpp(part)
        back = reconstruct_wpp(compacted.to_partitioned(), program)
        assert list(back.events) == list(wpp.events)


class TestStats:
    def test_stage_sizes_monotone(self, small_workload):
        _p, _s, wpp = small_workload
        _compacted, stats = compact_wpp(partition_wpp(wpp))
        assert stats.owpp_trace_bytes > stats.dedup_trace_bytes
        assert stats.dedup_trace_bytes >= stats.dict_stage_trace_bytes
        assert stats.dcg_lzw_bytes < stats.dcg_raw_bytes

    def test_factor_properties(self, small_workload):
        _p, _s, wpp = small_workload
        _compacted, stats = compact_wpp(partition_wpp(wpp))
        assert stats.dedup_factor == pytest.approx(
            stats.owpp_trace_bytes / stats.dedup_trace_bytes
        )
        assert stats.overall_factor == pytest.approx(
            stats.owpp_total_bytes / stats.compacted_total_bytes
        )
        assert stats.trace_compaction_factor == pytest.approx(
            stats.dedup_factor * stats.dictionary_factor * stats.twpp_factor
        )

    def test_totals_compose(self, small_workload):
        _p, _s, wpp = small_workload
        _compacted, stats = compact_wpp(partition_wpp(wpp))
        assert (
            stats.compacted_total_bytes
            == stats.dcg_lzw_bytes
            + stats.ctwpp_trace_bytes
            + stats.dictionary_bytes
        )
        assert (
            stats.owpp_total_bytes
            == stats.dcg_raw_bytes + stats.owpp_trace_bytes
        )

    def test_zero_division_guard(self):
        from repro.compact.pipeline import CompactionStats

        stats = CompactionStats()
        assert stats.dedup_factor == float("inf")


class TestDcgRewrite:
    def test_node_trace_references_pairs(self, figure1_compacted):
        _p, _w, part, compacted, _stats = figure1_compacted
        f_idx = part.func_index("f")
        fc = compacted.function("f")
        for node in range(len(compacted.dcg)):
            if compacted.dcg.node_func[node] == f_idx:
                assert 0 <= compacted.dcg.node_trace[node] < len(fc.pairs)

    def test_call_pattern_preserved(self, figure1_compacted):
        """The B,B,A,B,A pattern of Figure 1 survives compaction."""
        _p, _w, part, compacted, _stats = figure1_compacted
        f_idx = part.func_index("f")
        fc = compacted.function("f")
        sequence = [
            fc.expand_pair(compacted.dcg.node_trace[n])
            for n in range(len(compacted.dcg))
            if compacted.dcg.node_func[n] == f_idx
        ]
        assert sequence == [
            FIGURE1_F_TRACE_B,
            FIGURE1_F_TRACE_B,
            FIGURE1_F_TRACE_A,
            FIGURE1_F_TRACE_B,
            FIGURE1_F_TRACE_A,
        ]
