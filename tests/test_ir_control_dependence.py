"""Unit tests for static control dependence (FOW construction)."""

from repro.ir import ProgramBuilder, binop, control_dependence
from repro.workloads import figure10_program


class TestDiamond:
    def test_arms_depend_on_fork(self, diamond_program):
        program, _ = diamond_program
        deps = control_dependence(program.function("main"))
        # then/else arms are controlled by the cond block (3).
        assert 3 in deps[4]
        assert 3 in deps[5]
        # The latch runs on both arms, so it depends on the loop head,
        # not on the inner cond.
        assert 3 not in deps[6]
        assert 2 in deps[6]

    def test_loop_body_depends_on_head(self, diamond_program):
        program, _ = diamond_program
        deps = control_dependence(program.function("main"))
        # Direct dependence on the head is limited to the blocks that
        # postdominate the loop body entry (FOW is not transitive): the
        # cond and the latch.  The arms reach the head transitively via
        # the cond.
        assert 2 in deps[3]
        assert 2 in deps[6]
        assert deps[4] == frozenset({3})
        assert deps[5] == frozenset({3})

    def test_loop_head_self_dependence(self, diamond_program):
        program, _ = diamond_program
        deps = control_dependence(program.function("main"))
        # Whether the head runs again is decided by the head itself.
        assert 2 in deps[2]

    def test_entry_and_exit_depend_on_nothing(self, diamond_program):
        program, _ = diamond_program
        deps = control_dependence(program.function("main"))
        assert deps[1] == frozenset()
        assert deps[7] == frozenset()


class TestFigure10:
    """Control dependences of the paper's slicing example."""

    def test_paper_dependences(self):
        program = figure10_program()
        deps = control_dependence(program.function("main"))
        # Loop body statements are controlled by the while at node 4.
        for node in (5, 6, 9, 10, 11, 12):
            assert deps[node] == frozenset({4})
        # The if arms are controlled by node 6 (and transitively 4).
        assert 6 in deps[7]
        assert 6 in deps[8]
        # Statements after the loop are unconditional.
        assert deps[13] == frozenset()
        assert deps[14] == frozenset()

    def test_straight_line_has_no_dependences(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b1.assign("x", 1).jump(b2)
        b2.ret("x")
        deps = control_dependence(pb.build().function("main"))
        assert all(not parents for parents in deps.values())
