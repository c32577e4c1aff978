"""Unit + round-trip tests for the textual IR parser."""

import pytest

from repro.ir import (
    ParseError,
    format_program,
    parse_function,
    parse_program,
)
from repro.ir.expr import BinOp, Const, Intrinsic, UnaryOp, Var
from repro.ir.stmt import Assign, Read, Return, Store, Switch
from repro.workloads import (
    figure1_program,
    figure9_program,
    figure10_program,
    figure12_program,
    workload,
)


def assert_programs_equal(a, b):
    """Structural equality (labels are comments and not preserved)."""
    assert a.main == b.main
    # The printer emits main first; definition order is not semantic.
    assert sorted(a.function_names()) == sorted(b.function_names())
    for name in a.function_names():
        fa, fb = a.function(name), b.function(name)
        assert fa.params == fb.params
        assert fa.entry == fb.entry
        assert fa.block_ids() == fb.block_ids()
        for bid in fa.block_ids():
            assert fa.blocks[bid].statements == fb.blocks[bid].statements
            assert fa.blocks[bid].terminator == fb.blocks[bid].terminator


SAMPLE = """
func main() entry=B1 {
  B1:
    n = read()
    x = (n + -3)
    y = f1(x)
    store (x + 1) = y
    write y
    breakpoint here
    r = call helper(x, 2)
    call helper(0, 0)
    if (x < 0) then B2 else B3
  B2:
    z = (-x)
    jump B3
  B3:
    return r
}

func helper(a, b) entry=B1 {
  B1:
    switch (a % 3) [0: B2, 1: B2, 2: B3] default B3
  B2:
    return (a * b)
  B3:
    return (!a)
}
"""


class TestParsing:
    def test_sample_structure(self):
        program = parse_program(SAMPLE)
        main = program.function("main")
        assert program.main == "main"
        stmts = main.block(1).statements
        assert stmts[0] == Read("n")
        assert stmts[1].expr == BinOp("+", Var("n"), Const(-3))
        assert stmts[2].expr == Intrinsic("f1", (Var("x"),))
        assert isinstance(stmts[3], Store)
        assert stmts[6].dest == "r" and stmts[6].callee == "helper"
        assert stmts[7].dest is None
        assert main.block(2).statements[0].expr == UnaryOp("-", Var("x"))

    def test_switch_parsed(self):
        program = parse_program(SAMPLE)
        term = program.function("helper").block(1).terminator
        assert isinstance(term, Switch)
        assert term.cases == (2, 2, 3)
        assert term.default == 3

    def test_bare_return(self):
        func = parse_function(
            "func f() entry=B1 {\n  B1:\n    return\n}"
        )
        assert func.block(1).terminator == Return(None)

    def test_main_defaults_to_first_function(self):
        program = parse_program(
            "func solo() entry=B1 {\n  B1:\n    return 0\n}"
        )
        assert program.main == "solo"

    def test_variable_named_func(self):
        """Only ``func NAME(`` reads as a header; ``func`` alone is a
        plain variable name."""
        func = parse_function(
            "func f() entry=B1 {\n  B1:\n    func = 1\n    return func\n}"
        )
        assert func.block(1).statements[0] == Assign("func", Const(1))

    def test_negative_literal_vs_subtraction(self):
        func = parse_function(
            "func f(a) entry=B1 {\n  B1:\n"
            "    x = (a - 3)\n    y = (a - -3)\n    z = -7\n    return z\n}"
        )
        stmts = func.block(1).statements
        assert stmts[0].expr == BinOp("-", Var("a"), Const(3))
        assert stmts[1].expr == BinOp("-", Var("a"), Const(-3))
        assert stmts[2].expr == Const(-7)


class TestErrors:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("func f() entry=B1 {\n  B1:\n    return\n", "unterminated"),
            ("}", "stray"),
            ("x = 1", "outside a function"),
            ("func f() entry=B1 {\n  x = 1\n}", "outside a block"),
            (
                "func f() entry=B1 {\n  B1:\n  B1:\n}",
                "duplicate block",
            ),
            (
                "func f() entry=B1 {\n  B1:\n    return\n    x = 1\n}",
                "after terminator",
            ),
            ("", "no functions"),
            (
                "func f() entry=B1 {\n  B1:\n    x = (1 +\n}",
                "line",
            ),
            (
                "func main(\n  garbage\n",
                "^line 1: malformed function header: 'func main\\('$",
            ),
            (
                "func main(a b):",
                "^line 1: malformed function header: 'func main\\(a b\\):'$",
            ),
        ],
    )
    def test_malformed(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_program(text)

    def test_trailing_tokens(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_program(
                "func f() entry=B1 {\n  B1:\n    return 0 junk\n}"
            )

    def test_bad_expression_token(self):
        with pytest.raises(ParseError):
            parse_program(
                "func f() entry=B1 {\n  B1:\n    x = (1 ~ 2)\n    return\n}"
            )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "build",
        [
            figure1_program,
            figure9_program,
            figure10_program,
            figure12_program,
        ],
    )
    def test_paper_programs(self, build):
        original = build()
        reparsed = parse_program(format_program(original), verify=False)
        reparsed.main = original.main
        assert_programs_equal(original, reparsed)

    def test_generated_workload(self):
        original, _spec = workload("li-like", scale=0.05)
        reparsed = parse_program(format_program(original))
        assert_programs_equal(original, reparsed)

    def test_reparsed_program_runs_identically(self):
        from repro.trace import collect_wpp

        original, _spec = workload("perl-like", scale=0.05)
        reparsed = parse_program(format_program(original))
        a = collect_wpp(original)
        b = collect_wpp(reparsed)
        assert a.func_names == b.func_names
        assert list(a.events) == list(b.events)
