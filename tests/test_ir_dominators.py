"""Unit tests for dominators and postdominators."""

from repro.ir import (
    ProgramBuilder,
    VIRTUAL_EXIT,
    binop,
    function_postdominators,
    immediate_dominators,
)


class TestImmediateDominators:
    def test_straight_line(self):
        succs = {1: [2], 2: [3], 3: []}
        idom = immediate_dominators(1, succs)
        assert idom == {1: 1, 2: 1, 3: 2}

    def test_diamond(self):
        succs = {1: [2, 3], 2: [4], 3: [4], 4: []}
        idom = immediate_dominators(1, succs)
        assert idom[4] == 1  # join dominated by the fork, not a branch

    def test_loop(self):
        succs = {1: [2], 2: [3, 4], 3: [2], 4: []}
        idom = immediate_dominators(1, succs)
        assert idom[2] == 1
        assert idom[3] == 2
        assert idom[4] == 2

    def test_unreachable_nodes_absent(self):
        succs = {1: [2], 2: [], 9: [1]}
        idom = immediate_dominators(1, succs)
        assert 9 not in idom

    def test_irreducible_graph(self):
        # Two entries into a cycle: 1 -> {2, 3}, 2 <-> 3, both -> 4.
        succs = {1: [2, 3], 2: [3, 4], 3: [2, 4], 4: []}
        idom = immediate_dominators(1, succs)
        assert idom[2] == 1
        assert idom[3] == 1
        assert idom[4] == 1


class TestFunctionDominators:
    def test_diamond_program(self, diamond_program):
        program, _ = diamond_program
        func = program.function("main")
        succs = {bid: list(func.successors(bid)) for bid in func.block_ids()}
        idom = immediate_dominators(func.entry, succs)
        # Head dominates the whole loop body and the exit.
        assert idom[3] == 2
        assert idom[4] == 3
        assert idom[5] == 3
        assert idom[6] == 3
        assert idom[7] == 2

    def test_postdominators(self, diamond_program):
        program, _ = diamond_program
        ipdom = function_postdominators(program.function("main"))
        # The latch postdominates both diamond arms.
        assert ipdom[4] == 6
        assert ipdom[5] == 6
        # The exit postdominates the head.
        assert ipdom[2] == 7
        assert ipdom[7] == VIRTUAL_EXIT

    def test_multiple_exits(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b3 = fb.block()
        b1.branch(binop("<", 1, 2), b2, b3)
        b2.ret(1)
        b3.ret(2)
        ipdom = function_postdominators(pb.build().function("main"))
        assert ipdom[1] == VIRTUAL_EXIT  # no single-block postdominator
        assert ipdom[2] == VIRTUAL_EXIT
