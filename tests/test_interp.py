"""Unit tests for the interpreter and its tracing hooks."""

import pytest

from repro.interp import (
    FuelExhausted,
    InterpError,
    Interpreter,
    ListTracer,
    UndefinedVariable,
    run_program,
)
from repro.ir import ProgramBuilder, binop, intrinsic


def loop_program(n):
    pb = ProgramBuilder()
    fb = pb.function("main")
    b1 = fb.block()
    b2 = fb.block()
    b3 = fb.block()
    b4 = fb.block()
    b1.assign("i", 0).assign("s", 0).jump(b2)
    b2.branch(binop("<", "i", n), b3, b4)
    b3.assign("s", binop("+", "s", "i")).assign("i", binop("+", "i", 1)).jump(b2)
    b4.ret("s")
    return pb.build()


class TestBasics:
    def test_return_value(self):
        result = run_program(loop_program(5))
        assert result.return_value == 0 + 1 + 2 + 3 + 4

    def test_blocks_executed_count(self):
        result = run_program(loop_program(3))
        # 1 entry + (head+body)*3 + final head + exit = 1+6+1+1
        assert result.blocks_executed == 9

    def test_args_bound_to_params(self):
        pb = ProgramBuilder()
        fb = pb.function("main", params=("a", "b"))
        fb.block().ret(binop("-", "a", "b"))
        assert run_program(pb.build(), args=[10, 4]).return_value == 6

    def test_wrong_arity_raises(self):
        pb = ProgramBuilder()
        fb = pb.function("main", params=("a",))
        fb.block().ret("a")
        with pytest.raises(InterpError, match="expects 1 args"):
            run_program(pb.build())

    def test_undefined_variable(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().ret("ghost")
        with pytest.raises(UndefinedVariable):
            run_program(pb.build())

    def test_intrinsic_evaluation(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().assign("y", intrinsic("f1", 10)).ret("y")
        assert run_program(pb.build()).return_value == 21


class TestIO:
    def test_read_consumes_inputs_then_zero(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b = fb.block()
        b.read("a").read("b").read("c").write("a").write("b").write("c").ret(0)
        result = run_program(pb.build(), inputs=[7, 8])
        assert result.output == [7, 8, 0]

    def test_heap_load_store(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b = fb.block()
        b.store(100, 42).load("x", 100).load("y", 200).ret(binop("+", "x", "y"))
        assert run_program(pb.build()).return_value == 42  # missing cell reads 0

    def test_heap_shared_across_calls(self):
        pb = ProgramBuilder()
        writer = pb.function("writer")
        writer.block().store(5, 99).ret(0)
        fb = pb.function("main")
        fb.block().call("writer", []).load("v", 5).ret("v")
        assert run_program(pb.build()).return_value == 99


class TestCalls:
    def test_nested_calls_and_return_values(self):
        pb = ProgramBuilder()
        add1 = pb.function("add1", params=("x",))
        add1.block().ret(binop("+", "x", 1))
        twice = pb.function("twice", params=("x",))
        twice.block().call("add1", ["x"], dest="a").call(
            "add1", ["a"], dest="b"
        ).ret("b")
        fb = pb.function("main")
        fb.block().call("twice", [10], dest="r").ret("r")
        assert run_program(pb.build()).return_value == 12

    def test_call_without_return_value_into_dest_raises(self):
        pb = ProgramBuilder()
        void = pb.function("void")
        void.block().ret()  # returns nothing
        fb = pb.function("main")
        fb.block().call("void", [], dest="r").ret(0)
        with pytest.raises(InterpError, match="return value"):
            run_program(pb.build())

    def test_deep_recursive_call_chain(self):
        """A 5000-deep call chain must not hit Python's recursion limit."""
        pb = ProgramBuilder()
        f = pb.function("down", params=("n",))
        b1 = f.block()
        b2 = f.block()
        b3 = f.block()
        b1.branch(binop(">", "n", 0), b2, b3)
        b2.call("down", [binop("-", "n", 1)], dest="r").ret("r")
        b3.ret(0)
        fb = pb.function("main")
        fb.block().call("down", [5000], dest="r").ret("r")
        result = run_program(pb.build())
        assert result.return_value == 0
        assert result.calls_made == 5002


class TestTracing:
    def test_list_tracer_event_structure(self, caller_program):
        tracer = ListTracer()
        run_program(caller_program, tracer=tracer)
        events = tracer.events
        assert events[0] == ("enter", "main")
        assert events[1] == ("block", 1)
        assert events[-1] == ("leave",)
        enters = sum(1 for e in events if e[0] == "enter")
        leaves = sum(1 for e in events if e[0] == "leave")
        assert enters == leaves == 8  # main + 7 leaf calls

    def test_counting_tracer(self, caller_program):
        tracer = ListTracer()
        result = run_program(caller_program, tracer=tracer)
        kinds = [event[0] for event in tracer.events]
        assert kinds.count("enter") == kinds.count("leave") == result.calls_made
        assert kinds.count("block") == result.blocks_executed

    def test_fuel_exhaustion(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b1.jump(b1)  # infinite loop
        with pytest.raises(FuelExhausted):
            run_program(pb.build(), max_events=1000)

    def test_interpreter_reusable(self):
        interp = Interpreter(loop_program(4))
        assert interp.run().return_value == interp.run().return_value
