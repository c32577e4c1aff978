"""Unit tests for static reaching definitions."""

from repro.ir import ProgramBuilder, binop, reaching_definitions
from repro.workloads import figure10_program


class TestReachingDefinitions:
    def test_linear_kill(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b1.assign("x", 1).assign("x", 2).jump(b2)
        b2.ret("x")
        rd = reaching_definitions(pb.build().function("main"))
        # Only the second definition reaches B2.
        assert rd.defs_of(2, "x") == {(1, 1)}
        assert rd.def_blocks_of(2, "x") == {1}

    def test_merge_at_join(self, diamond_program):
        program, _ = diamond_program
        rd = reaching_definitions(program.function("main"))
        # acc defined at entry (1), then (4) and else (5); all three can
        # reach the loop head via the latch.
        assert rd.def_blocks_of(2, "acc") == {1, 4, 5}
        # At the latch both arms' definitions merge.
        assert rd.def_blocks_of(6, "acc") == {4, 5}

    def test_loop_carried_defs(self, diamond_program):
        program, _ = diamond_program
        rd = reaching_definitions(program.function("main"))
        assert rd.def_blocks_of(2, "i") == {1, 6}

    def test_figure10_j_defs(self):
        """The slicing example: J=0 (node 3) and J=I (node 11) both
        reach node 13 -- this is exactly why slicing Approach 1
        over-approximates."""
        program = figure10_program()
        rd = reaching_definitions(program.function("main"))
        assert rd.def_blocks_of(13, "J") == {3, 11}
        assert rd.def_blocks_of(13, "Z") == {9}
