"""Losslessness tests: partition -> reconstruct must be the identity."""

from array import array

import pytest

from repro.trace import (
    ENTER,
    LEAVE,
    DynamicCallGraph,
    collect_wpp,
    dcg_children,
    pair_call_counts,
    partition_wpp,
    reconstruct_wpp,
    trace_call_count,
    trace_from_tuples,
    block_call_counts,
    unpack_event,
)
from repro.workloads import figure1_program, workload


class TestRoundTrip:
    def test_caller_program(self, caller_program):
        wpp = collect_wpp(caller_program)
        part = partition_wpp(wpp)
        back = reconstruct_wpp(part, caller_program)
        assert back.to_tuples() == wpp.to_tuples()

    def test_figure1(self):
        program = figure1_program()
        wpp = collect_wpp(program)
        part = partition_wpp(wpp)
        back = reconstruct_wpp(part, program)
        assert back.to_tuples() == wpp.to_tuples()

    def test_all_generated_workloads_small(self):
        for name in ("go-like", "li-like", "perl-like"):
            program, _spec = workload(name, scale=0.1)
            wpp = collect_wpp(program)
            part = partition_wpp(wpp)
            back = reconstruct_wpp(part, program)
            assert list(back.events) == list(wpp.events), name

    def test_empty_dcg(self, caller_program):
        from repro.trace.partition import PartitionedWpp
        from repro.trace.dcg import DynamicCallGraph

        empty = PartitionedWpp(func_names=[], dcg=DynamicCallGraph(), traces=[])
        assert len(reconstruct_wpp(empty, caller_program)) == 0


class TestCallCounts:
    def test_block_call_counts(self, caller_program):
        counts = block_call_counts(caller_program)
        assert counts["main"] == {1: 0, 2: 0, 3: 1, 4: 0}
        assert all(v == 0 for v in counts["leaf"].values())

    def test_trace_call_count(self, caller_program):
        counts = block_call_counts(caller_program)["main"]
        trace = (1, 2, 3, 2, 3, 2, 4)
        assert trace_call_count(trace, counts) == 2


def nesting_children(wpp):
    """Children per activation, read off the WPP's ENTER/LEAVE nesting."""
    children, stack = [], []
    for packed in wpp.events:
        kind = unpack_event(packed)[0]
        if kind == ENTER:
            node = len(children)
            children.append([])
            if stack:
                children[stack[-1]].append(node)
            stack.append(node)
        elif kind == LEAVE:
            stack.pop()
    return children


def derived_children(part, program):
    return dcg_children(
        part.dcg, pair_call_counts(part.func_names, part.traces, program)
    )


class TestRebuildParents:
    """The tree derived from preorder plus call counts is the tree the
    partitioner saw as enter/leave nesting."""

    def test_parents_match_original(self, small_workload, small_partitioned):
        program, _spec, wpp = small_workload
        children = derived_children(small_partitioned, program)
        assert children == nesting_children(wpp)
        assert sum(map(len, children)) == len(small_partitioned.dcg) - 1

    def test_single_node(self, caller_program):
        wpp = trace_from_tuples([("enter", "main"), ("block", 1), ("leave",)])
        part = partition_wpp(wpp)
        assert derived_children(part, caller_program) == [[]]

    def test_nested_and_sibling_calls(self, caller_program):
        wpp = collect_wpp(caller_program)
        part = partition_wpp(wpp)
        children = derived_children(part, caller_program)
        assert children == nesting_children(wpp)
        assert children[0] == list(range(1, 8))

    def test_orphan_node_named(self):
        # main executes no call, f two, g none: the totals match (two
        # calls, two non-root nodes), but g arrives after main is done.
        dcg = DynamicCallGraph(
            node_func=array("I", [0, 1, 2]), node_trace=array("I", [0, 0, 0])
        )
        with pytest.raises(ValueError, match="DCG node 1: no activation"):
            dcg_children(dcg, [[0], [2], [0]])

    def test_calls_left_over_named(self):
        dcg = DynamicCallGraph(
            node_func=array("I", [0, 1]), node_trace=array("I", [0, 0])
        )
        with pytest.raises(
            ValueError, match="DCG node 0: trace executes 3 calls but the "
            "DCG records 1 children"
        ):
            dcg_children(dcg, [[3], [0]])

    def test_reconstruct_rejects_a_mismatch(self, caller_program):
        part = partition_wpp(collect_wpp(caller_program))
        part.dcg.node_func.pop()
        part.dcg.node_trace.pop()
        with pytest.raises(ValueError, match="past the DCG's last node"):
            reconstruct_wpp(part, caller_program)
        part = partition_wpp(collect_wpp(caller_program))
        part.dcg.add_node(part.func_index("leaf"))
        with pytest.raises(ValueError, match="DCG node 8: no activation"):
            reconstruct_wpp(part, caller_program)
