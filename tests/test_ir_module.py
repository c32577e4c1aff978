"""Unit tests for repro.ir.module: blocks, functions, programs, verifier."""

import pytest

from repro.ir import (
    BasicBlock,
    Function,
    IRError,
    Program,
    ProgramBuilder,
    binop,
    verify_program,
)
from repro.ir.stmt import Assign, Call, Jump, Return


def make_linear_function(name="f"):
    pb = ProgramBuilder(main=name)
    fb = pb.function(name)
    b1 = fb.block()
    b2 = fb.block()
    b1.assign("x", 1).jump(b2)
    b2.ret("x")
    return pb.build().function(name)


class TestBasicBlock:
    def test_successors_from_terminator(self):
        f = make_linear_function()
        assert f.block(1).successors() == (2,)
        assert f.block(2).successors() == ()

    def test_missing_terminator_raises(self):
        block = BasicBlock(block_id=1)
        with pytest.raises(IRError):
            block.successors()

    def test_calls_in_order(self):
        block = BasicBlock(
            block_id=1,
            statements=[
                Assign("a", binop("+", 1, 2)),
                Call("g", ()),
                Call("h", ()),
            ],
            terminator=Return(),
        )
        assert [c.callee for c in block.calls()] == ["g", "h"]

    def test_defs_uses_union(self):
        f = make_linear_function()
        assert f.block(1).defs() == {"x"}
        assert f.block(2).uses() == {"x"}

    def test_upward_exposed_uses(self):
        block = BasicBlock(
            block_id=1,
            statements=[
                Assign("a", binop("+", "b", 1)),  # b exposed
                Assign("c", binop("+", "a", "d")),  # a defined above; d exposed
            ],
            terminator=Return(),
        )
        assert block.upward_exposed_uses() == {"b", "d"}


class TestFunction:
    def test_block_lookup_error(self):
        f = make_linear_function()
        with pytest.raises(IRError):
            f.block(99)

    def test_predecessors(self, diamond_program):
        program, _ = diamond_program
        preds = program.function("main").predecessors()
        assert preds[2] == [1, 6]
        assert preds[6] == [4, 5]
        assert preds[1] == []

    def test_exit_blocks(self, diamond_program):
        program, _ = diamond_program
        assert program.function("main").exit_blocks() == [7]

    def test_edges_sorted(self, diamond_program):
        program, _ = diamond_program
        edges = program.function("main").edges()
        assert (2, 3) in edges and (6, 2) in edges
        assert edges == sorted(edges)

    def test_callees(self, caller_program):
        assert caller_program.function("main").callees() == {"leaf"}
        assert caller_program.function("leaf").callees() == frozenset()


class TestProgram:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add(make_linear_function("main"))
        with pytest.raises(IRError):
            program.add(make_linear_function("main"))

    def test_missing_function_lookup(self):
        with pytest.raises(IRError):
            Program().function("ghost")


class TestVerifier:
    def test_valid_program_passes(self, caller_program):
        verify_program(caller_program)

    def test_missing_main(self):
        program = Program(main="main")
        program.add(make_linear_function("other"))
        with pytest.raises(IRError, match="no main"):
            verify_program(program)

    def test_dangling_branch_target(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b1.jump(42)
        with pytest.raises(IRError, match="missing"):
            pb.build()

    def test_unknown_callee(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b1.call("ghost", []).ret()
        with pytest.raises(IRError, match="unknown function"):
            pb.build()

    def test_arity_mismatch(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf", params=("a", "b"))
        leaf.block().ret(0)
        fb = pb.function("main")
        fb.block().call("leaf", [1]).ret()
        with pytest.raises(IRError, match="args"):
            pb.build()

    def test_unreachable_block(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b1.ret(0)
        b2.ret(0)
        with pytest.raises(IRError, match="unreachable"):
            pb.build()

    def test_unreachable_allowed_when_unverified(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b1.ret(0)
        b2.ret(0)
        program = pb.build(verify=False)
        assert len(program.function("main").blocks) == 2

    def test_duplicate_params(self):
        pb = ProgramBuilder()
        fb = pb.function("main", params=("a", "a"))
        fb.block().ret(0)
        with pytest.raises(IRError, match="duplicate parameter"):
            pb.build()
