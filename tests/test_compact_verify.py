"""Unit tests for the compacted-WPP integrity checker."""

import pytest

from repro.compact import IntegrityError, compact_wpp, verify_compacted
from repro.compact.dbb import DbbDictionary
from repro.compact.series import TimestampSet
from repro.compact.twpp import TwppPathTrace, trace_to_twpp
from repro.ir import ProgramBuilder
from repro.trace import (
    DynamicCallGraph,
    PartitionedWpp,
    collect_wpp,
    partition_wpp,
)
from repro.workloads import figure1_program


@pytest.fixture
def good():
    program = figure1_program()
    compacted, _stats = compact_wpp(partition_wpp(collect_wpp(program)))
    return program, compacted


class TestAccepts:
    def test_valid_pipeline_output(self, good):
        program, compacted = good
        notes = verify_compacted(compacted, program)
        assert len(notes) == 3
        assert any("consistent" in n for n in notes)

    def test_without_program(self, good):
        _program, compacted = good
        notes = verify_compacted(compacted)
        assert len(notes) == 2

    def test_generated_workload(self, small_workload):
        program, _spec, wpp = small_workload
        compacted, _stats = compact_wpp(partition_wpp(wpp))
        verify_compacted(compacted, program)


class TestRejects:
    def test_bad_pair_reference(self, good):
        _program, compacted = good
        compacted.dcg.node_trace[1] = 99
        with pytest.raises(IntegrityError, match="out of range"):
            verify_compacted(compacted)

    def test_bad_function_reference(self, good):
        _program, compacted = good
        compacted.dcg.node_func[0] = 42
        with pytest.raises(IntegrityError, match="bad function"):
            verify_compacted(compacted)

    def test_call_count_mismatch(self, good):
        _program, compacted = good
        compacted.function("f").call_count = 99
        with pytest.raises(IntegrityError, match="call_count"):
            verify_compacted(compacted)

    def test_dangling_body_id(self, good):
        _program, compacted = good
        fc = compacted.function("f")
        fc.pairs[0] = (7, 0)
        with pytest.raises(IntegrityError, match="bad body id"):
            verify_compacted(compacted)

    def test_duplicate_pair(self, good):
        _program, compacted = good
        fc = compacted.function("f")
        fc.pairs[1] = fc.pairs[0]
        with pytest.raises(IntegrityError, match="duplicate pair"):
            verify_compacted(compacted)

    def test_malformed_twpp_stream(self, good):
        _program, compacted = good
        fc = compacted.function("main")
        # main's body 1.2.2.2.2.2.6, with block 6 moved onto timestamp
        # 6 (block 2's): timestamp 7 is left a gap.
        entries = dict(fc.twpp_table[0].entries)
        entries[6] = TimestampSet.single(6)
        fc.twpp_table[0] = TwppPathTrace(
            entries=tuple(sorted(entries.items()))
        )
        with pytest.raises(IntegrityError, match="TWPP malformed.*gap"):
            verify_compacted(compacted)

    def test_missing_block_against_program(self, good):
        program, compacted = good
        fc = compacted.function("f")
        # A well-formed body, so only the program check fails.
        fc.twpp_table[0] = trace_to_twpp((1, 2, 2, 2, 77))
        verify_compacted(compacted)
        with pytest.raises(IntegrityError, match="missing block B77"):
            verify_compacted(compacted, program)

    def test_function_name_table_mismatch(self, good):
        _program, compacted = good
        compacted.func_names[0] = "renamed"
        with pytest.raises(IntegrityError, match="name"):
            verify_compacted(compacted)


class TestDcgShape:
    def test_orphan_node_rejected(self):
        """main executes no call, f two, g none.  The call totals match
        the non-root nodes, but f arrives after main has finished."""
        pb = ProgramBuilder()
        pb.function("g").block().ret(0)
        f = pb.function("f")
        f.block().call("g", []).call("g", []).ret(0)
        pb.function("main").block().ret(0)
        program = pb.build()
        dcg = DynamicCallGraph()
        for func_idx in (0, 1, 2):  # main, f, g in preorder
            dcg.add_node(func_idx)
        compacted, _stats = compact_wpp(
            PartitionedWpp(
                func_names=["main", "f", "g"],
                dcg=dcg,
                traces=[[(1,)], [(1,)], [(1,)]],
            )
        )
        with pytest.raises(IntegrityError, match="DCG shape: DCG node 1"):
            verify_compacted(compacted, program)
