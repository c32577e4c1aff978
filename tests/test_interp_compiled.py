"""Differential tests: the compiled engine vs the tree-walking reference.

The compiled engine (:mod:`repro.interp.compile`) must be *observably
indistinguishable* from the tree-walker: same event stream (including
the ``block_run`` lists it is split into), same ``RunResult``, same
``.twpp`` bytes, same errors at the same points.  Everything here runs
both engines explicitly -- ``Interpreter(program).run`` and
``compiled_for(program).run`` -- and compares.
"""

import gc
import sys
import threading
import weakref
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compact import compact_wpp, serialize_twpp
from repro.compact.stream import stream_compact
from repro.interp import (
    CompiledProgram,
    CompileUnsupported,
    DivisionByZero,
    FuelExhausted,
    InterpError,
    Interpreter,
    ListTracer,
    ShiftTooLarge,
    UndefinedVariable,
    compiled_for,
    run_program,
)
from repro.interp.interpreter import RUN_BUFFER_CAP
from repro.ir import BasicBlock, Function, ProgramBuilder, binop, intrinsic
from repro.ir.expr import MAX_SHIFT, Const
from repro.ir.stmt import Assign, Return
from repro.obs import MetricsRegistry
from repro.trace import WppBuilder, partition_wpp
from repro.workloads import WorkloadSpec, generate_program
from repro.workloads.specs import WORKLOAD_NAMES, workload

from .conftest import decline_compile, tiny_specs


def tree_run(program, args=(), inputs=(), tracer=None, max_events=50_000_000):
    return Interpreter(program, max_events=max_events).run(
        args=args, inputs=inputs, tracer=tracer
    )


def compiled_run(
    program, args=(), inputs=(), tracer=None, max_events=50_000_000
):
    return compiled_for(program).run(
        args=args, inputs=inputs, tracer=tracer, max_events=max_events
    )


def assert_identical(program, args=(), inputs=(), max_events=50_000_000):
    """Run both engines and compare events + results; returns the result."""
    lt_tree, lt_comp = ListTracer(), ListTracer()
    r_tree = tree_run(program, args, inputs, lt_tree, max_events)
    r_comp = compiled_run(
        program, args=args, inputs=inputs, tracer=lt_comp, max_events=max_events
    )
    assert lt_tree.events == lt_comp.events
    assert r_tree.return_value == r_comp.return_value
    assert r_tree.output == r_comp.output
    assert r_tree.blocks_executed == r_comp.blocks_executed
    assert r_tree.calls_made == r_comp.calls_made
    return r_comp


@pytest.fixture
def fresh_code_cache(monkeypatch):
    """An empty code cache for one test, so its miss counts do not
    depend on what earlier tests compiled."""
    from repro.interp import compile as compile_mod

    cache = OrderedDict()
    monkeypatch.setattr(compile_mod, "_code_cache", cache)
    return cache


class _SegmentTracer:
    """Keeps every ``ids`` list it is handed, as is, between the
    ``("enter", name)`` and ``("leave",)`` events around it."""

    def __init__(self):
        self.events = []

    def enter(self, name):
        self.events.append(("enter", name))

    def block_run(self, ids):
        self.events.append(ids)

    def leave(self):
        self.events.append(("leave",))

    @property
    def runs(self):
        return [e for e in self.events if type(e) is list]

    @property
    def segments(self):
        return [len(run) for run in self.runs]

    def stream(self):
        """The kept lists read back as a ListTracer event stream."""
        out = []
        for e in self.events:
            if type(e) is list:
                out.extend(("block", block_id) for block_id in e)
            else:
                out.append(e)
        return out


def _capacity_program(iterations=9000):
    """A two-block loop: one straight-line run of ``iterations`` + 2
    blocks, past one 8192-block capacity flush."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    b1 = fb.block()
    b2 = fb.block()
    b3 = fb.block()
    b1.assign("i", 0).jump(b2)
    b2.assign("i", binop("+", "i", 1)).branch(
        binop("<", "i", iterations), b2, b3
    )
    b3.ret("i")
    return pb.build()


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_events_and_result_identical(self, name):
        program, _spec = workload(name, scale=0.05)
        assert_identical(program)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_twpp_bytes_identical(self, name):
        program, _spec = workload(name, scale=0.05)
        blobs = []
        for engine in (tree_run, compiled_run):
            builder = WppBuilder()
            engine(program, tracer=builder)
            compacted, _stats = compact_wpp(partition_wpp(builder.finish()))
            blobs.append(serialize_twpp(compacted))
        assert blobs[0] == blobs[1]

    def test_stream_compact_bytes_identical(self, tmp_path, monkeypatch):
        """stream_compact writes the same bytes on the compiled engine and
        on the tree-walker it falls back to."""
        program, _spec = workload("perl-like", scale=0.1)
        stream_compact(program, tmp_path / "compiled.twpp")
        metrics = MetricsRegistry()
        with monkeypatch.context() as patch:
            decline_compile(patch)
            stream_compact(program, tmp_path / "tree.twpp", metrics=metrics)
        assert metrics.counters["interp.fallbacks"] == 1
        assert (tmp_path / "tree.twpp").read_bytes() == (
            tmp_path / "compiled.twpp"
        ).read_bytes()

    @given(tiny_specs())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hypothesis_programs_identical(self, spec):
        program = generate_program(spec)
        assert_identical(program, max_events=500_000)

    @given(tiny_specs(), st.integers(1, 400))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hypothesis_fuel_truncation_identical(self, spec, max_events):
        """Cutting a random program off mid-run truncates both engines at
        the same event, with identical partial streams."""
        program = generate_program(spec)
        streams = []
        for engine in ("tree", "compiled"):
            tracer = ListTracer()
            try:
                if engine == "tree":
                    tree_run(program, tracer=tracer, max_events=max_events)
                else:
                    compiled_run(program, tracer=tracer, max_events=max_events)
                outcome = "done"
            except FuelExhausted as exc:
                outcome = str(exc)
            streams.append((outcome, tracer.events))
        assert streams[0] == streams[1]


class TestEventStreamDetail:
    @pytest.mark.parametrize("engine", [tree_run, compiled_run],
                             ids=["tree", "compiled"])
    @pytest.mark.parametrize("source", ["capacity", "gcc-like", "caller"])
    def test_kept_run_lists_are_the_event_stream(
        self, engine, source, caller_program
    ):
        """A tracer may keep every ``ids`` list it is handed: each is a
        fresh list the engine never touches again, so once the run is
        over the kept lists still read back as its event stream."""
        if source == "capacity":
            program = _capacity_program()
        elif source == "caller":
            program = caller_program
        else:
            program, _spec = workload(source, scale=0.05)
        kept = _SegmentTracer()
        engine(program, tracer=kept)
        reference = ListTracer()
        tree_run(program, tracer=reference)
        assert kept.stream() == reference.events
        runs = kept.runs
        assert all(type(run) is list and run for run in runs)
        assert len({id(run) for run in runs}) == len(runs)
        if source == "capacity":
            assert kept.segments == [8192, 810]

    def test_flush_segmentation_identical(self):
        """Run-buffer flush boundaries (capacity + enter/leave) match."""
        program, _spec = workload("gcc-like", scale=0.05)
        t_tree, t_comp = _SegmentTracer(), _SegmentTracer()
        tree_run(program, tracer=t_tree)
        compiled_run(program, tracer=t_comp)
        assert t_tree.segments == t_comp.segments
        assert t_tree.events == t_comp.events

    def test_capacity_flush_segmentation(self):
        """A >8192-block straight-line run must split at the same points."""
        t_tree, t_comp = _SegmentTracer(), _SegmentTracer()
        tree_run(_capacity_program(), tracer=t_tree)
        compiled_run(_capacity_program(), tracer=t_comp)
        assert max(t_tree.segments) == 8192
        assert t_tree.segments == t_comp.segments
        assert t_tree.events == t_comp.events

    def test_fuel_exhaustion_mid_block_flushes_pending_run(self):
        """The block that exceeds the budget is never traced, and the
        pending run is flushed before FuelExhausted -- both engines."""
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b1.jump(b1)
        program = pb.build()
        outcomes = []
        for engine in (tree_run, compiled_run):
            tracer = _SegmentTracer()
            with pytest.raises(FuelExhausted, match="exceeded 1000"):
                engine(program, tracer=tracer, max_events=1000)
            outcomes.append(tracer.events)
        assert outcomes[0] == outcomes[1]
        # The budget-exceeding block is absent.
        assert sum(len(e) for e in outcomes[0] if type(e) is list) == 1000


class TestErrorParity:
    def test_undefined_variable(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().ret("ghost")
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(UndefinedVariable) as exc_info:
                engine(program)
            assert exc_info.value.args == ("ghost",)

    def test_undefined_variable_in_callee(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf")
        leaf.block().assign("x", binop("+", "missing", 1)).ret("x")
        fb = pb.function("main")
        fb.block().call("leaf", [], dest="r").ret("r")
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(UndefinedVariable) as exc_info:
                engine(program)
            assert exc_info.value.args == ("missing",)

    @pytest.mark.parametrize(
        "op,message", [("//", "division"), ("%", "modulo")]
    )
    def test_zero_division_messages(self, op, message):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().assign("x", binop(op, 1, 0)).ret("x")
        program = pb.build()
        texts = []
        for engine in (tree_run, compiled_run):
            with pytest.raises(DivisionByZero) as exc_info:
                engine(program)
            # The CLI reports an InterpError as the program's fault.
            assert isinstance(exc_info.value, InterpError)
            assert isinstance(exc_info.value, ZeroDivisionError)
            texts.append(str(exc_info.value))
        assert texts[0] == texts[1]
        assert message in texts[0]

    def test_store_evaluates_value_before_address(self):
        # Assignment semantics: the stored value is evaluated before the
        # address, so the undefined variable must win on both engines
        # even though the address would divide by zero.
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().store(binop("//", 1, 0), "ghost").ret(0)
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(UndefinedVariable) as exc_info:
                engine(program)
            assert exc_info.value.args == ("ghost",)

    def test_call_without_return_value_into_dest(self):
        pb = ProgramBuilder()
        void = pb.function("void")
        void.block().ret()
        fb = pb.function("main")
        fb.block().call("void", [], dest="r").ret(0)
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(InterpError, match="return value") as exc_info:
                engine(program)
            assert str(exc_info.value).startswith("main:")

    def test_main_arity_message(self):
        pb = ProgramBuilder()
        fb = pb.function("main", params=("a",))
        fb.block().ret("a")
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(InterpError, match="main expects 1 args, got 0"):
                engine(program)

    def test_fuel_exhausted_message(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b1.jump(b1)
        program = pb.build()
        for engine in (tree_run, compiled_run):
            with pytest.raises(FuelExhausted, match="exceeded 77 basic-block"):
                engine(program, max_events=77)


class TestSemanticsDetail:
    def test_comparisons_yield_ints_not_bools(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().assign(
            "s", binop("+", binop("<", 1, 2), binop("==", 3, 3))
        ).ret(binop("<", 0, "s"))
        result = compiled_run(pb.build())
        assert result.return_value == 1
        assert type(result.return_value) is int
        assert type(result.return_value) is not bool

    def test_switch_out_of_range_and_duplicates(self):
        from repro.ir.builder import FunctionBuilder  # noqa: F401

        for selector in (-1, 0, 1, 2, 3, 99):
            pb = ProgramBuilder()
            fb = pb.function("main", params=("sel",))
            b1 = fb.block()
            b2 = fb.block()
            b3 = fb.block()
            b4 = fb.block()
            b1.switch("sel", [b2, b3, b2], default=b4)
            b2.assign("r", 10).ret("r")
            b3.assign("r", 20).ret("r")
            b4.assign("r", 30).ret("r")
            assert_identical(pb.build(), args=[selector])

    def test_read_exhaustion_yields_zero(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().read("a").read("b").read("c").write("a").write("b").write(
            "c"
        ).ret(0)
        result = assert_identical(pb.build(), inputs=[4, 5])
        assert result.output == [4, 5, 0]

    def test_heap_shared_across_functions(self):
        pb = ProgramBuilder()
        writer = pb.function("writer")
        writer.block().store(5, 99).ret(0)
        fb = pb.function("main")
        fb.block().call("writer", []).load("v", 5).ret("v")
        assert assert_identical(pb.build()).return_value == 99

    def test_intrinsics(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        fb.block().assign("y", intrinsic("f1", 10)).assign(
            "z", intrinsic("max", "y", intrinsic("lcg", 7))
        ).ret(binop("+", "y", "z"))
        assert_identical(pb.build())

    def test_deep_recursion_runs_on_trampoline(self):
        """5000-deep IR recursion must not hit Python's stack limit."""
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
        result = compiled_run(pb.build())
        assert result.return_value == 0
        assert result.calls_made == 5002

    def test_acyclic_helpers_compile_to_direct_calls(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf", params=("x",))
        leaf.block().ret(binop("+", "x", 1))
        mid = pb.function("mid", params=("x",))
        mid.block().call("leaf", ["x"], dest="a").ret("a")
        fb = pb.function("main")
        fb.block().call("mid", [41], dest="r").ret("r")
        compiled = compiled_for(pb.build())
        # An acyclic two-level chain needs no trampoline at all.
        assert "yield" not in compiled.source
        assert compiled.run().return_value == 42


def _with_block(func, block):
    """``func`` rebuilt with ``block`` in place of its namesake: the IR
    is frozen, so a changed function is a new one."""
    return Function(
        func.name, func.params, {**func.blocks, block.block_id: block}, func.entry
    )


class TestFallbackAndSelection:
    def _unsupported_program(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        block = fb.block()
        block.ret(0)
        program = pb.build()
        # A variable name that cannot become a Python local.
        program.functions["main"] = _with_block(
            program.functions["main"],
            BasicBlock(1, (Assign("not an identifier", Const(1)),), Return(Const(0))),
        )
        return program

    def test_compile_unsupported_raises(self):
        with pytest.raises(CompileUnsupported, match="not an identifier"):
            compiled_for(self._unsupported_program())

    def test_run_program_falls_back_to_tree(self):
        metrics = MetricsRegistry()
        result = run_program(self._unsupported_program(), metrics=metrics)
        assert result.return_value == 0
        assert metrics.counters["interp.fallbacks"] == 1
        assert "interp.compiled_runs" not in metrics.counters

    def test_arity_mismatch_falls_back(self):
        pb = ProgramBuilder()
        leaf = pb.function("leaf", params=("a",))
        leaf.block().ret("a")
        fb = pb.function("main")
        fb.block().call("leaf", [1], dest="r").ret("r")
        program = pb.build()
        # The builder verifies arities, so widen the params afterwards --
        # the tree-walker tolerates the mismatch via dict(zip(...)).
        leaf_fn = program.functions["leaf"]
        program.functions["leaf"] = Function(
            "leaf", ("a", "b"), leaf_fn.blocks, leaf_fn.entry
        )
        with pytest.raises(CompileUnsupported, match="arity|passes 1 args"):
            compiled_for(program)
        # Fallback must reproduce the tree-walker's permissive zip.
        assert run_program(program).return_value == 1

    def test_engine_counters(self, fresh_code_cache):
        pb = ProgramBuilder()
        pb.function("main").block().ret(0)
        program = pb.build()
        metrics = MetricsRegistry()
        run_program(program, metrics=metrics)
        assert metrics.counters["interp.compiled_runs"] == 1
        assert metrics.counters["interp.compiles"] == 1
        assert "interp.compile" in metrics.timers_ms
        run_program(program, metrics=metrics)
        assert metrics.counters["interp.compiled_runs"] == 2
        assert metrics.counters["interp.compiles"] == 1  # code-cache hit
        assert "interp.fallbacks" not in metrics.counters

    def test_mutated_program_runs_its_new_code(self):
        """A program given a rebuilt function after a compiled run runs
        the new function: the code cache is keyed by generated text, not
        program identity."""
        pb = ProgramBuilder()
        pb.function("main").block().ret(1)
        program = pb.build()
        assert run_program(program).return_value == 1
        program.functions["main"] = _with_block(
            program.functions["main"], BasicBlock(1, (), Return(Const(2)))
        )
        assert tree_run(program).return_value == 2
        assert run_program(program).return_value == 2

    def test_compiled_program_reusable(self):
        compiled = CompiledProgram(
            generate_program(
                WorkloadSpec(name="fuzz", seed=7, n_functions=4, layers=2)
            )
        )
        a = compiled.run()
        b = compiled.run()
        assert a.return_value == b.return_value
        assert a.blocks_executed == b.blocks_executed


def _factory_codes(compiled):
    return {
        name: factory.__code__
        for name, factory in zip(compiled.func_names, compiled._factories)
    }


class TestCodeCache:
    """One content-keyed LRU of code objects, shared by every program."""

    def test_scale_steps_share_every_function_but_main(self, fresh_code_cache):
        small, _spec = workload("perl-like", scale=0.5)
        large, _spec = workload("perl-like", scale=0.6)
        metrics = MetricsRegistry()
        first = compiled_for(small, metrics=metrics)
        assert metrics.counters["interp.compiles"] == len(small.functions)
        metrics = MetricsRegistry()
        second = compiled_for(large, metrics=metrics)
        codes_small = _factory_codes(first)
        codes_large = _factory_codes(second)
        assert codes_small.keys() == codes_large.keys()
        differing = [
            name for name in codes_small
            if codes_small[name] is not codes_large[name]
        ]
        assert differing == ["main"]
        assert metrics.counters["interp.compiles"] == len(differing)
        assert second.compiles == 1

    def test_collected_program_is_not_held(self, fresh_code_cache):
        pb = ProgramBuilder()
        pb.function("main").block().ret(0)
        program = pb.build()
        compiled = compiled_for(program)
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None
        assert compiled.run().return_value == 0
        assert all(type(key) is str for key in fresh_code_cache)

    def test_bound_evicts_least_recently_used(
        self, fresh_code_cache, monkeypatch
    ):
        from repro.interp import compile as compile_mod

        monkeypatch.setattr(compile_mod, "CODE_CACHE_SIZE", 3)
        programs = []
        for value in range(4):
            pb = ProgramBuilder()
            pb.function("main").block().ret(value)
            programs.append(pb.build())
        texts = [compiled_for(p).source for p in programs[:3]]
        assert list(fresh_code_cache) == texts
        assert compiled_for(programs[0]).compiles == 0  # hit: now newest
        texts.append(compiled_for(programs[3]).source)
        assert len(fresh_code_cache) == 3
        assert list(fresh_code_cache) == [texts[2], texts[0], texts[3]]
        assert compiled_for(programs[1]).compiles == 1  # evicted oldest
        assert list(fresh_code_cache) == [texts[0], texts[3], texts[1]]
        for value, program in enumerate(programs):
            assert compiled_for(program).run().return_value == value
            assert len(fresh_code_cache) <= 3


    def test_threads_share_the_bounded_cache(
        self, fresh_code_cache, monkeypatch
    ):
        """Eight threads translating and running twelve programs through
        a four-text cache at a 1 us switch interval: every run answers
        its own program and the bound holds."""
        from repro.interp import compile as compile_mod

        monkeypatch.setattr(compile_mod, "CODE_CACHE_SIZE", 4)
        programs = []
        for value in range(12):
            pb = ProgramBuilder()
            pb.function("main").block().ret(value)
            programs.append(pb.build())
        wrong = []
        sizes = []

        def work(offset):
            for i in range(60):
                value = (offset + i) % len(programs)
                got = compiled_for(programs[value]).run().return_value
                if got != value:
                    wrong.append((value, got))
                sizes.append(len(fresh_code_cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == 8 * 60 and max(sizes) <= 4


class TestFacadeIntegration:
    def test_session_trace_runs_the_compiled_engine(self):
        from repro.api import Session

        program, _spec = workload("go-like", scale=0.05)
        session = Session()
        wpp = session.trace(program)
        reference = WppBuilder()
        tree_run(program, tracer=reference)
        assert wpp.events == reference.finish().events
        assert session.metrics.counters["interp.compiled_runs"] == 1
        assert "interp.fallbacks" not in session.metrics.counters


def _looping_program(iterations, tail=None):
    """main counts to ``iterations`` in a two-block loop and calls a
    two-block leaf every seventh iteration; ``tail`` (an expression)
    is assigned after the loop."""
    pb = ProgramBuilder()
    leaf = pb.function("leaf", params=("a",))
    l1 = leaf.block()
    l2 = leaf.block()
    l1.assign("b", binop("+", "a", 1)).jump(l2)
    l2.ret("b")
    fb = pb.function("main")
    b1 = fb.block()
    b2 = fb.block()
    b3 = fb.block()
    b4 = fb.block()
    b5 = fb.block()
    b1.assign("i", 0).jump(b2)
    b2.assign("i", binop("+", "i", 1)).branch(
        binop("==", binop("%", "i", 7), 0), b3, b4
    )
    b3.call("leaf", ["i"], dest="r").jump(b4)
    b4.branch(binop("<", "i", iterations), b2, b5)
    if tail is not None:
        b5.assign("x", tail)
    b5.ret("i")
    return pb.build()


def _observe(engine, program, tracer_cls, max_events):
    """One run's outcome, trace and counters under one tracer kind.

    The outcome is the error (type and message) or the result and its
    counters; the trace is the tracer's events: one per event for a
    ListTracer, the ``block_run`` lists as handed over for a
    _SegmentTracer."""
    tracer = tracer_cls()
    try:
        result = engine(program, tracer=tracer, max_events=max_events)
        outcome = (
            "done",
            result.return_value,
            result.blocks_executed,
            result.calls_made,
        )
    except InterpError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, tracer.events


def _assert_parity(program, tracer_cls, max_events):
    tree = _observe(tree_run, program, tracer_cls, max_events)
    compiled = _observe(compiled_run, program, tracer_cls, max_events)
    assert tree == compiled
    return tree


# "per-event" compares the flat event stream; "block-run" also the lists
# it was handed over in.
TRACER_KINDS = [
    pytest.param(ListTracer, id="per-event"),
    pytest.param(_SegmentTracer, id="block-run"),
]


class TestFuelInRunBuffer:
    """The budget is enforced by the run buffer's capacity test: every
    budget, near a capacity multiple or the run's own length, must cut
    the run where the tree-walker does, with both tracer kinds."""

    TOTAL = 12000 * 2 + 12000 // 7 * 3 + 2

    def test_total_is_the_program_length(self):
        outcome = _assert_parity(
            _looping_program(12000), _SegmentTracer, 50_000_000
        )[0]
        assert outcome[2] == self.TOTAL

    @pytest.mark.parametrize("tracer_cls", TRACER_KINDS)
    @pytest.mark.parametrize(
        "budget",
        [0, 1, 8191, 8192, 8193, 16383, 16384, 16385,
         TOTAL - 1, TOTAL, TOTAL + 1],
    )
    def test_budget(self, tracer_cls, budget):
        outcome = _assert_parity(_looping_program(12000), tracer_cls, budget)[0]
        if budget < self.TOTAL:
            assert outcome == (
                "FuelExhausted", f"exceeded {budget} basic-block events"
            )
        else:
            assert outcome[0] == "done"

    @pytest.mark.parametrize("tracer_cls", TRACER_KINDS)
    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_hypothesis_budgets_on_workloads(self, tracer_cls, data):
        program, _spec = workload(
            data.draw(st.sampled_from(WORKLOAD_NAMES)), scale=0.05
        )
        total = tree_run(program).blocks_executed
        _assert_parity(program, tracer_cls, data.draw(st.integers(0, total + 1)))

    @pytest.mark.parametrize("tracer_cls", TRACER_KINDS)
    @pytest.mark.parametrize("op", ["//", "%"])
    def test_error_after_a_capacity_flush(self, tracer_cls, op):
        """A fault past the first 8192-block flush: the tracer is still
        handed every block up to the faulting one, on both engines, also
        when that block spends the last of the budget."""
        program = _looping_program(9000 // 2, tail=binop(op, "i", 0))
        for engine in (tree_run, compiled_run):
            reached = _SegmentTracer()
            with pytest.raises(DivisionByZero):
                engine(program, tracer=reached)
            blocks = [e for e in reached.stream() if e[0] == "block"]
            assert len(blocks) > 8192 and blocks[-1] == ("block", 5)
        for budget in (50_000_000, len(blocks)):
            observed = _assert_parity(program, tracer_cls, budget)
            assert observed[0][0] == "DivisionByZero"

    def test_pending_blocks_reach_the_tracer_on_error(self):
        pb = ProgramBuilder()
        fb = pb.function("main")
        b1 = fb.block()
        b2 = fb.block()
        b1.assign("x", 1).jump(b2)
        b2.ret("ghost")
        program = pb.build()
        for engine in (tree_run, compiled_run):
            tracer = _SegmentTracer()
            with pytest.raises(
                UndefinedVariable, match="undefined variable 'ghost'"
            ):
                engine(program, tracer=tracer)
            assert tracer.events == [("enter", "main"), [1, 2]]


INT_EDGES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 1, 2**63, 2**63 + 1, -(2**63) - 1, 2**64 - 1]),
)


def _value_program(exprs):
    """``main(a, b)`` writes each expression's value."""
    pb = ProgramBuilder()
    fb = pb.function("main", params=("a", "b"))
    block = fb.block()
    for expr in exprs:
        block.write(expr)
    block.ret(0)
    return pb.build()


class TestNativeRewrite:
    """``//``/``%`` by a nonzero constant and intrinsics over atoms run
    as native Python operators, with the tree-walker's exact values."""

    @given(
        a=INT_EDGES,
        divisor=INT_EDGES.filter(lambda d: d != 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_constant_divisors(self, a, divisor):
        program = _value_program(
            [binop("//", "a", divisor), binop("%", "a", divisor),
             binop("//", divisor, "b"), binop("%", divisor, "b")]
        )
        source = compiled_for(program).source
        assert source.count("_div(") == 1 and source.count("_mod(") == 1
        b = divisor if a == 0 else a  # a nonzero variable divisor
        assert_identical(program, args=[a, b])

    @given(a=INT_EDGES, b=INT_EDGES)
    @settings(max_examples=150, deadline=None)
    def test_intrinsics(self, a, b):
        exprs = []
        for name in ("f1", "f2", "f3", "lcg", "abs"):
            exprs += [
                intrinsic(name, "a"),
                intrinsic(name, a),
                binop("*", intrinsic(name, "b"), -3),  # inlined as one operand
            ]
        for name in ("min", "max"):
            exprs += [intrinsic(name, "a", "b"), intrinsic(name, b, "a")]
        program = _value_program(exprs)
        assert "_i_" not in compiled_for(program).source
        assert_identical(program, args=[a, b])

    def test_compound_arguments_still_call(self):
        program = _value_program(
            [intrinsic("f3", binop("+", "a", 1)), intrinsic("lcg", binop("%", "a", "b"))]
        )
        source = compiled_for(program).source
        assert "_i_f3(" in source and "_i_lcg(_mod(" in source
        assert_identical(program, args=[-7, 3])

    @pytest.mark.parametrize(
        "op,helper,message",
        [
            ("//", "_div(", "IR integer division by zero"),
            ("%", "_mod(", "IR integer modulo by zero"),
        ],
    )
    def test_literal_zero_divisor_keeps_the_checked_helper(
        self, op, helper, message
    ):
        program = _value_program([binop(op, "a", 0)])
        assert helper in compiled_for(program).source
        for engine in (tree_run, compiled_run):
            with pytest.raises(DivisionByZero) as exc_info:
                engine(program, args=[5, 0])
            assert str(exc_info.value) == message


    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_source_has_two_statement_preambles(self, name):
        program, _spec = workload(name, scale=0.05)
        source = compiled_for(program).source
        assert "_fuel" not in source
        assert "_div(" not in source and "_mod(" not in source
        assert "_i_" not in source and "_INTR" not in source
        lines = [line.strip() for line in source.splitlines()]
        capacity = f"if len(_tb) == {RUN_BUFFER_CAP}: _spill()"
        traced = [i for i, line in enumerate(lines) if line.startswith("_t(")]
        assert traced
        for i in traced:
            assert lines[i + 1] == capacity
        # Nothing else of the preamble is left anywhere.
        assert lines.count(capacity) == len(traced)


def _outcome(engine, program, args):
    """An engine's result on ``program``: its output, or the type and
    text of what it raised."""
    try:
        return engine(program, args=args).output
    except (InterpError, ValueError) as exc:
        return type(exc), str(exc)


class TestShiftBound:
    """``<<`` counts above ``MAX_SHIFT`` fail as the program's fault on
    both engines; a constant count within the bound stays native."""

    @given(
        a=INT_EDGES,
        count=st.one_of(
            st.integers(-3, 80),
            st.sampled_from(
                [MAX_SHIFT - 1, MAX_SHIFT, MAX_SHIFT + 1, 10**11, -(10**11)]
            ),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_engines_agree(self, a, count):
        variable = _value_program([binop("<<", "a", "b")])
        constant = _value_program([binop("<<", "a", count)])
        for program in (variable, constant):
            tree = _outcome(tree_run, program, [a, count])
            assert _outcome(compiled_run, program, [a, count]) == tree
            if count > MAX_SHIFT:
                assert tree == (
                    ShiftTooLarge,
                    f"IR left shift count {count} exceeds {MAX_SHIFT}",
                )
        assert "_lshift(" in compiled_for(variable).source
        assert ("_lshift(" in compiled_for(constant).source) == (count > MAX_SHIFT)

    def test_oversized_count_is_an_interp_error(self):
        program = _value_program([binop("<<", 1, 10**11)])
        for engine in (tree_run, compiled_run):
            with pytest.raises(ShiftTooLarge) as exc_info:
                engine(program, args=[0, 0])
            assert isinstance(exc_info.value, InterpError)
