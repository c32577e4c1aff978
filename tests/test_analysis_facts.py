"""Unit tests for GEN-KILL facts and statement classification."""

from repro.analysis import (
    GEN,
    KILL,
    TRANSPARENT,
    LoadAvailable,
    VarHasDefinition,
    classify_statements,
    has_calls,
)
from repro.ir.expr import const, var
from repro.ir.stmt import Assign, Call, Load, Store


class TestLoadAvailable:
    fact = LoadAvailable(100)

    def test_gen_by_matching_load(self):
        assert self.fact.gens(Load("r", const(100)))

    def test_not_gen_by_other_address(self):
        assert not self.fact.gens(Load("r", const(101)))

    def test_not_gen_by_variable_address(self):
        assert not self.fact.gens(Load("r", var("p")))

    def test_kill_by_matching_store(self):
        assert self.fact.kills(Store(const(100), const(1)))

    def test_not_killed_by_other_constant_store(self):
        assert not self.fact.kills(Store(const(7), const(1)))

    def test_killed_by_unknown_address_store(self):
        assert self.fact.kills(Store(var("p"), const(1)))

    def test_assign_is_transparent(self):
        stmt = Assign("x", const(1))
        assert not self.fact.gens(stmt) and not self.fact.kills(stmt)


class TestVarHasDefinition:
    def test_gen_by_any_def(self):
        fact = VarHasDefinition("x")
        assert fact.gens(Assign("x", const(1)))
        assert fact.gens(Load("x", const(5)))
        assert not fact.gens(Assign("y", const(1)))
        assert not fact.kills(Assign("x", const(1)))


class TestClassification:
    fact = LoadAvailable(42)

    def test_last_writer_wins(self):
        stmts = [Load("a", const(42)), Store(const(42), const(0))]
        assert classify_statements(stmts, self.fact) == KILL
        assert classify_statements(list(reversed(stmts)), self.fact) == GEN

    def test_transparent(self):
        assert (
            classify_statements([Assign("x", const(1))], self.fact)
            == TRANSPARENT
        )
        assert classify_statements([], self.fact) == TRANSPARENT

    def test_has_calls(self):
        assert has_calls([Call("f", ())])
        assert not has_calls([Assign("x", const(1))])


class TestExpressionAvailable:
    def test_gen_by_exact_operand_match(self):
        from repro.analysis import ExpressionAvailable
        from repro.ir.expr import binop

        fact = ExpressionAvailable(operands=("a", "b"))
        assert fact.gens(Assign("t", binop("+", "a", "b")))
        assert fact.gens(Assign("t", binop("*", "b", "a")))
        assert not fact.gens(Assign("t", binop("+", "a", "c")))
        assert not fact.gens(Assign("t", var("a")))

    def test_self_redefining_compute_does_not_gen(self):
        from repro.analysis import ExpressionAvailable
        from repro.ir.expr import binop

        fact = ExpressionAvailable(operands=("a", "b"))
        # a = a + b recomputes but immediately clobbers an operand.
        assert not fact.gens(Assign("a", binop("+", "a", "b")))
        assert fact.kills(Assign("a", binop("+", "a", "b")))

    def test_kill_by_operand_definition(self):
        from repro.analysis import ExpressionAvailable

        fact = ExpressionAvailable(operands=("a", "b"))
        assert fact.kills(Assign("a", const(1)))
        assert fact.kills(Load("b", const(7)))
        assert not fact.kills(Assign("z", const(1)))

    def test_engine_integration(self):
        """Availability of (a+b) across a loop with a clobber."""
        from repro.analysis import (
            DemandDrivenEngine,
            ExpressionAvailable,
        )
        from repro.ir import ProgramBuilder, binop

        pb = ProgramBuilder()
        main = pb.function("main")
        b1 = main.block()  # t = a + b   (gen)
        b2 = main.block()  # use
        b3 = main.block()  # a = a + 1   (kill)
        b4 = main.block()
        b1.assign("a", 1).assign("b", 2).assign(
            "t", binop("+", "a", "b")
        ).jump(b2)
        b2.assign("u", binop("*", "t", 2)).jump(b3)
        b3.assign("a", binop("+", "a", 1)).jump(b4)
        b4.ret("u")
        program = pb.build()
        fact = ExpressionAvailable(operands=("a", "b"))
        # NB: block 1 both defines a/b (kills) and computes a+b (gens);
        # the gen is last, so the block nets out GEN.
        eng = DemandDrivenEngine.for_function_trace(
            program.function("main"), (1, 2, 3, 4), fact
        )
        assert eng.query(2).always_holds  # right after the compute
        assert eng.query(4).never_holds  # after the clobber in 3
