"""Unit tests for interprocedural dynamic slicing."""

import pytest

from repro.analysis import InterproceduralSlicer, TimestampSet
from repro.compact import compact_wpp
from repro.ir import ProgramBuilder, binop
from repro.trace import collect_wpp, partition_wpp


def build(programmer):
    pb = ProgramBuilder()
    programmer(pb)
    program = pb.build()
    compacted, _stats = compact_wpp(partition_wpp(collect_wpp(program)))
    return program, compacted


def return_value_program(pb):
    """main: r = double(a); z = r + 1  -- slice on z chases into double."""
    double = pb.function("double", params=("x",))
    d1 = double.block()
    d2 = double.block()
    d1.assign("y", binop("*", "x", 2)).jump(d2)
    d2.ret("y")
    main = pb.function("main")
    m1 = main.block()
    m2 = main.block()
    m1.assign("a", 5).assign("dead", 99).call(
        "double", ["a"], dest="r"
    ).jump(m2)
    m2.assign("z", binop("+", "r", 1)).ret("z")


def two_callees_program(pb):
    """Instance precision across calls: only the second callee matters."""
    ident = pb.function("ident", params=("x",))
    ident.block().ret("x")
    main = pb.function("main")
    m1 = main.block()
    m2 = main.block()
    m1.assign("a", 1).assign("b", 2).call(
        "ident", ["a"], dest="r"
    ).call("ident", ["b"], dest="r").jump(m2)
    m2.assign("z", "r").ret("z")


class TestReturnValueChasing:
    def test_slice_descends_into_callee(self):
        program, compacted = build(return_value_program)
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 2, ["z"])
        assert ("double", 1) in result.slice_nodes  # y = x * 2
        assert ("double", 2) in result.slice_nodes  # return y
        assert ("main", 1) in result.slice_nodes  # a = 5 and the call
        assert result.activations_visited >= 2
        assert result.functions() == ["double", "main"]

    def test_blocks_of(self):
        program, compacted = build(return_value_program)
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 2, ["z"])
        assert result.blocks_of("double") == [1, 2]

    def test_criterion_recorded(self):
        program, compacted = build(return_value_program)
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 2, ["z"])
        assert result.criterion == ("main", 2)


class TestParameterEscape:
    def test_param_use_reaches_caller_argument(self):
        """Slicing inside the callee on its parameter pulls in the
        caller's argument definition."""
        program, compacted = build(return_value_program)
        slicer = InterproceduralSlicer(compacted, program)
        # Activation 1 is the double() call; slice on x at its block 1.
        result = slicer.slice(1, 1, ["x"], TimestampSet.single(1))
        assert ("main", 1) in result.slice_nodes  # a = 5 defines the arg

    def test_root_parameters_stop(self):
        pb = ProgramBuilder()
        main = pb.function("main", params=("argc",))
        main.block().assign("z", "argc").ret("z")
        program = pb.build()
        compacted, _ = compact_wpp(
            partition_wpp(collect_wpp(program, args=[3]))
        )
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 1, ["argc"], TimestampSet.single(1))
        # Nothing to chase: argc came from outside the program.
        assert result.slice_nodes == {("main", 1)}


class TestCallStackContext:
    def test_nested_activation_pulls_in_call_chain(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf")
        leaf.block().assign("v", 7).ret("v")
        mid = pb.function("mid")
        mid.block().call("leaf", [], dest="v").ret("v")
        main = pb.function("main")
        main.block().call("mid", [], dest="v").ret("v")
        program = pb.build()
        compacted, _ = compact_wpp(partition_wpp(collect_wpp(program)))
        slicer = InterproceduralSlicer(compacted, program)
        # Slice inside leaf: both call sites must join the slice (the
        # leaf only ran because mid ran because main called it).
        leaf_node = 2  # preorder: main=0, mid=1, leaf=2
        result = slicer.slice(leaf_node, 1, ["v"], TimestampSet.single(1))
        assert ("mid", 1) in result.slice_nodes
        assert ("main", 1) in result.slice_nodes


class TestControlDependence:
    def test_branch_guarding_call_included(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf", params=("x",))
        leaf.block().ret(binop("+", "x", 1))
        main = pb.function("main", params=("c",))
        m1 = main.block()
        m2 = main.block()
        m3 = main.block()
        m4 = main.block()
        m1.assign("a", 4).branch("c", m2, m3)
        m2.call("leaf", ["a"], dest="r").jump(m4)
        m3.assign("r", 0).jump(m4)
        m4.ret("r")
        program = pb.build()
        compacted, _ = compact_wpp(
            partition_wpp(collect_wpp(program, args=[1]))
        )
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 4, ["r"])
        # Through the call: leaf and both the branch (m1) and call (m2).
        assert ("leaf", 1) in result.slice_nodes
        assert ("main", 2) in result.slice_nodes
        assert ("main", 1) in result.slice_nodes  # the guarding branch
        assert ("main", 3) not in result.slice_nodes  # untaken arm


class TestInstancePrecision:
    def test_only_relevant_call_instance(self):
        program, compacted = build(two_callees_program)
        slicer = InterproceduralSlicer(compacted, program)
        result = slicer.slice(0, 2, ["z"])
        # r at m2 came from the *second* ident call (arg b); a's value
        # flows through the first call whose result is overwritten.
        assert ("ident", 1) in result.slice_nodes
        assert ("main", 1) in result.slice_nodes
        # Only the second ident activation should have been visited
        # for data (plus main).
        assert result.activations_visited == 2


class TestSliceMany:
    def _slicer_and_criteria(self):
        program, compacted = build(return_value_program)
        slicer = InterproceduralSlicer(compacted, program)
        criteria = [
            (0, 2, ["z"]),
            (0, 2, ["r"]),
            (0, 1, ["a"]),
            (0, 2, ["z"], TimestampSet.single(2)),
        ]
        return slicer, criteria

    def test_matches_serial(self):
        slicer, criteria = self._slicer_and_criteria()
        serial = [
            slicer.slice(c[0], c[1], c[2], ts=c[3] if len(c) > 3 else None)
            for c in criteria
        ]
        fresh_slicer, _ = self._slicer_and_criteria()
        batch = fresh_slicer.slice_many(criteria)
        assert [r.slice_nodes for r in batch] == [
            r.slice_nodes for r in serial
        ]
        assert [r.criterion for r in batch] == [
            r.criterion for r in serial
        ]

    def test_serial_path_without_threads(self):
        slicer, criteria = self._slicer_and_criteria()
        results = slicer.slice_many(criteria)
        assert len(results) == len(criteria)
        assert results[0].slice_nodes == slicer.slice(0, 2, ["z"]).slice_nodes
