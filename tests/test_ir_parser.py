"""Unit + round-trip tests for the textual IR parser and its cache."""

import functools
import pickle
import sys
import threading
from collections import OrderedDict
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir import (
    BasicBlock,
    Function,
    IRError,
    ParseError,
    format_program,
    parse_function,
    parse_program,
    parser,
)
from repro.ir.expr import BinOp, Const, Intrinsic, UnaryOp, Var
from repro.ir.stmt import Assign, Read, Return, Store, Switch
from repro.obs import MetricsRegistry
from repro.workloads import (
    WORKLOAD_NAMES,
    figure1_program,
    figure9_program,
    figure10_program,
    figure12_program,
    generate_program,
    spec_for,
    workload,
)

from .conftest import tiny_specs


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


@pytest.fixture
def fresh_parse_cache(monkeypatch):
    """An empty parse cache for one test, so its hits and misses do not
    depend on what earlier tests parsed."""
    cache = OrderedDict()
    monkeypatch.setattr(parser, "_parse_cache", cache)
    return cache


def cold_parse(text, **kwargs):
    """``parse_program`` with the parse cache switched off."""
    saved = parser.PARSE_CACHE_SIZE, parser._parse_cache
    parser.PARSE_CACHE_SIZE, parser._parse_cache = 0, OrderedDict()
    try:
        return parse_program(text, **kwargs)
    finally:
        parser.PARSE_CACHE_SIZE, parser._parse_cache = saved


def parse_error(parse, text):
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    return str(exc_info.value)


def function_texts(text):
    """Each function's source, header through closing brace."""
    return ["func " + part.strip() for part in text.split("func ")[1:]]


@functools.lru_cache(maxsize=None)
def e2e_text(name, scale):
    return format_program(generate_program(spec_for(name, scale)))


class TestParseCache:
    @pytest.mark.parametrize("scale", [5.0, 5.5, 6.0])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_cached_equals_cold_on_workloads(self, fresh_parse_cache, name, scale):
        text = e2e_text(name, scale)
        n_functions = len(function_texts(text))
        cold = repr(cold_parse(text))
        metrics = MetricsRegistry()
        first = parse_program(text, metrics=metrics)
        assert metrics.counters == {"ir.parse.misses": n_functions}
        second = parse_program(text, metrics=metrics)
        assert metrics.counters["ir.parse.hits"] == n_functions
        assert repr(first) == repr(second) == cold
        # Both programs hold the very same frozen functions.
        assert all(
            first.functions[fn] is second.functions[fn] for fn in first.functions
        )

    @given(tiny_specs())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cached_equals_cold_on_generated_programs(self, spec):
        text = format_program(generate_program(spec))
        cold = repr(cold_parse(text))
        assert repr(parse_program(text)) == cold
        assert repr(parse_program(text)) == cold

    def test_steps_of_one_workload_share_all_but_main(self, fresh_parse_cache):
        metrics = MetricsRegistry()
        parse_program(e2e_text("gcc-like", 5.0), metrics=metrics)
        n = metrics.counters["ir.parse.misses"]
        parse_program(e2e_text("gcc-like", 5.5), metrics=metrics)
        assert metrics.counters["ir.parse.misses"] == n + 1
        assert metrics.counters["ir.parse.hits"] == n - 1

    def test_malformed_function_after_a_cached_one(self, fresh_parse_cache):
        good = SAMPLE
        bad = "func broken() entry=B1 {\n  B1:\n    x = (1 +\n}\n"
        parse_program(good)
        text = good + bad
        message = parse_error(parse_program, text)
        assert message == parse_error(cold_parse, text)
        assert message.startswith(f"line {text.count(chr(10)) - 1}:")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("x = (n + -3)", "x = (n + -4)"),  # still parses: a new key
            ("x = (n + -3)", "x = (n ~ -3)"),
            ("return (a * b)", "retrun (a * b)"),
            ("  B3:\n    return r", "  B2:\n    return r"),
        ],
    )
    def test_one_token_edit_of_a_cached_function(self, fresh_parse_cache, old, new):
        parse_program(SAMPLE)
        assert SAMPLE.count(old) == 1
        edited = SAMPLE.replace(old, new)
        try:
            expected = repr(cold_parse(edited))
        except ParseError as exc:
            assert parse_error(parse_program, edited) == str(exc)
        else:
            assert repr(parse_program(edited)) == expected
            assert repr(parse_program(edited)) != repr(parse_program(SAMPLE))

    def test_repeated_function_is_a_duplicate(self, fresh_parse_cache):
        helper = function_texts(SAMPLE)[1]
        with pytest.raises(IRError, match="duplicate function 'helper'"):
            parse_program(SAMPLE + "\n" + helper + "\n")
        # The repeat was a cache hit: main and helper are stored once each.
        assert len(fresh_parse_cache) == 2

    def test_program_checks_run_on_cached_functions(self, fresh_parse_cache):
        main, helper = function_texts(SAMPLE)
        parse_program(SAMPLE)
        widened = helper.replace("helper(a, b)", "helper(a, b, c)")
        metrics = MetricsRegistry()
        with pytest.raises(IRError, match="calls helper with 2 args, expected 3"):
            parse_program(main + "\n" + widened, metrics=metrics)
        assert metrics.counters["ir.parse.hits"] == 1
        with pytest.raises(IRError, match="no main function"):
            parse_program(helper, main="main")

    def test_frozen_blocks_and_functions(self):
        func = parse_program(SAMPLE).function("main")
        block = func.block(1)
        with pytest.raises(FrozenInstanceError):
            block.terminator = Return(None)
        with pytest.raises(FrozenInstanceError):
            block.statements = ()
        with pytest.raises(AttributeError):
            block.statements.append(Read("q"))
        with pytest.raises(FrozenInstanceError):
            func.params = ("a",)
        with pytest.raises(TypeError):
            func.blocks[9] = block
        with pytest.raises(AttributeError):
            func.blocks.pop(1)

    def test_function_blocks_are_a_private_copy(self):
        blocks = {1: BasicBlock(1, [Read("q")], Return(Var("q")))}
        func = Function("f", ["p"], blocks, 1)
        blocks.clear()
        assert list(func.blocks) == [1]
        assert func.params == ("p",)
        assert func.blocks[1].statements == (Read("q"),)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_parsed_function_survives_pickle(self, protocol):
        for func in parse_program(SAMPLE):
            clone = pickle.loads(pickle.dumps(func, protocol=protocol))
            assert clone == func
            assert repr(clone) == repr(func)
            with pytest.raises(TypeError):
                clone.blocks[9] = clone.blocks[1]

    def test_threads_agree_and_the_bound_holds(self, fresh_parse_cache, monkeypatch):
        bound, n_threads, rounds = 24, 4, 2
        monkeypatch.setattr(parser, "PARSE_CACHE_SIZE", bound)
        texts = [e2e_text(name, 5.0) for name in WORKLOAD_NAMES[:3]]
        expected = [repr(cold_parse(text)) for text in texts]
        n_functions = sum(len(function_texts(text)) for text in texts)
        metrics = MetricsRegistry()
        barrier = threading.Barrier(n_threads)
        sizes, errors = [], []
        results = [[] for _ in range(n_threads)]

        def work(slot):
            try:
                barrier.wait()
                for _ in range(rounds):
                    for text in texts:
                        program = parse_program(text, metrics=metrics)
                        sizes.append(len(fresh_parse_cache))
                        results[slot].append(repr(program))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert all(r == expected * rounds for r in results)
        assert sizes and max(sizes) <= bound
        assert len(fresh_parse_cache) == bound
        counters = metrics.counters
        assert counters["ir.parse.hits"] + counters["ir.parse.misses"] == (
            n_threads * rounds * n_functions
        )
