"""Exact-output tests for the paper's worked example programs."""

import pytest

from repro.compact import (
    compact_trace,
    compact_wpp,
    trace_to_twpp,
    twpp_to_trace,
)
from repro.compact.format import encode_series
from repro.trace import collect_wpp, partition_wpp, reconstruct_wpp
from repro.workloads import (
    FIGURE1_F_TRACE_A,
    FIGURE1_F_TRACE_B,
    FIGURE1_MAIN_TRACE,
    FIGURE10_INPUTS,
    FIGURE10_TRACE,
    figure1_program,
    figure9_program,
    figure10_program,
    figure12_program,
)


class TestFigure1:
    @pytest.fixture(scope="class")
    def partitioned(self):
        return partition_wpp(collect_wpp(figure1_program()))

    def test_call_pattern(self, partitioned):
        assert partitioned.call_counts() == {"main": 1, "f": 5}

    def test_exact_traces(self, partitioned):
        assert partitioned.unique_traces("main") == [FIGURE1_MAIN_TRACE]
        assert set(partitioned.unique_traces("f")) == {
            FIGURE1_F_TRACE_A,
            FIGURE1_F_TRACE_B,
        }

    def test_figure5_dictionaries(self, partitioned):
        """One shared trace body, two dictionaries for f (Figure 5)."""
        compacted, _stats = compact_wpp(partitioned)
        fc = compacted.function("f")
        assert [twpp_to_trace(t) for t in fc.twpp_table] == [(1, 2, 2, 2, 10)]
        assert {d.chains for d in fc.dict_table} == {
            ((2, 3, 4, 5, 6),),
            ((2, 7, 8, 9, 6),),
        }

    def test_figure7_compacted_twpp(self, partitioned):
        """main's compacted TWPP is {1->{-1}, 2->{2:-6}, 6->{-7}}."""
        body, _d = compact_trace(FIGURE1_MAIN_TRACE)
        twpp = trace_to_twpp(body)
        assert {b: encode_series(s) for b, s in twpp.entries} == {
            1: [-1],
            2: [2, -6],
            6: [-7],
        }

    def test_wpp_reconstruction(self, partitioned):
        program = figure1_program()
        wpp = collect_wpp(program)
        assert reconstruct_wpp(partitioned, program).to_tuples() == wpp.to_tuples()


class TestFigure9:
    def test_trace_shape(self):
        program = figure9_program()
        trace = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
        assert len(trace) == 501  # 100 iterations x 5 blocks + exit
        # Path segmentation: p1 x40, p2 x20, p3 x40.
        iters = [tuple(trace[i : i + 5]) for i in range(0, 500, 5)]
        assert iters[:40] == [(1, 2, 3, 4, 5)] * 40
        assert iters[40:60] == [(1, 2, 7, 4, 5)] * 20
        assert iters[60:] == [(1, 6, 7, 8, 5)] * 40

    def test_block_frequencies_match_paper(self):
        program = figure9_program()
        trace = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
        from collections import Counter

        freq = Counter(trace)
        assert freq[1] == 100  # 1_Load
        assert freq[4] == 60  # 4_Load
        assert freq[6] == 40  # 6_Store

    def test_paper_timestamp_series(self):
        from repro.analysis import TimestampedCfg

        program = figure9_program()
        trace = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
        cfg = TimestampedCfg.from_trace(trace)
        assert cfg.ts(1).entries == ((1, 496, 5),)
        assert cfg.ts(2).entries == ((2, 297, 5),)
        assert cfg.ts(3).entries == ((3, 198, 5),)
        assert cfg.ts(4).entries == ((4, 299, 5),)
        assert cfg.ts(7).entries == ((203, 498, 5),)


class TestFigure10:
    def test_execution_history(self):
        program = figure10_program()
        trace = partition_wpp(
            collect_wpp(program, inputs=FIGURE10_INPUTS)
        ).traces[0][0]
        assert trace == FIGURE10_TRACE

    def test_output_values(self):
        """write Z runs three times with f3(f1/f2(X)) values."""
        from repro.interp import run_program

        result = run_program(figure10_program(), inputs=FIGURE10_INPUTS)
        # X=-4 -> Y=f1(-4)=-7 -> Z=f3(-7)=42; X=3 -> Y=f2(3)=8 -> Z=72;
        # X=-2 -> Y=f1(-2)=-3 -> Z=6.
        assert result.output == [42, 72, 6]
        # Final Z = 6 + J(=3).
        assert result.return_value == 9


class TestFigure12:
    def test_both_paths_reachable(self):
        program = figure12_program()
        t1 = partition_wpp(collect_wpp(program, args=[1])).traces[0][0]
        t0 = partition_wpp(collect_wpp(program, args=[0])).traces[0][0]
        assert t1 == (1, 2, 3)
        assert t0 == (1, 4, 3)

    def test_optimized_semantics(self):
        from repro.interp import run_program

        # Through B2 the sunk assignment executes: X == 2 at the end.
        assert run_program(figure12_program(), args=[1]).return_value == 2
        # Bypassing B2 leaves the first assignment's value.
        assert run_program(figure12_program(), args=[0]).return_value == 1
