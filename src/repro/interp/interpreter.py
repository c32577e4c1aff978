"""A tree-walking interpreter that emits whole-program-path events.

The interpreter is deliberately simple -- integers, a flat heap, an
input stream -- but its control-flow reporting is exact: every basic
block executed is reported to the tracer in order, with function entries
and exits bracketing each activation.  That event stream *is* the WPP.

The evaluation loop is iterative (explicit frame stack) so deeply nested
call chains in generated workloads cannot hit Python's recursion limit.

Block ids reach the tracer as runs (see :mod:`repro.interp.tracer`):
the interpreter appends them to a list and hands the list to
``block_run`` at every enter/leave boundary, when it holds
:data:`RUN_BUFFER_CAP` ids, and before an exception leaves :meth:`run`.
This is the reference engine; :func:`run_program` runs the compiled
engine (:mod:`repro.interp.compile`) and falls back to this one only for
programs that engine declines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..ir.expr import BINARY_OPS, INTRINSICS, UNARY_OPS, BinOp, Const, Expr, Intrinsic, UnaryOp, Var
from ..ir.module import Function, Program
from ..ir.stmt import (
    Assign,
    Breakpoint,
    Call,
    CondJump,
    Jump,
    Load,
    Read,
    Return,
    Store,
    Switch,
    Write,
)
from .errors import CompileUnsupported, FuelExhausted, InterpError, UndefinedVariable
from .tracer import NullTracer

#: Default budget of basic-block events per run.  Generous enough for the
#: largest generated workloads; small enough to catch runaway loops fast.
DEFAULT_MAX_EVENTS = 50_000_000

#: Block ids one ``block_run`` hands over at most.
RUN_BUFFER_CAP = 8192


@dataclass
class RunResult:
    """Outcome of one program execution."""

    return_value: Optional[int]
    output: List[int]
    blocks_executed: int
    calls_made: int


@dataclass
class _Frame:
    func: Function
    env: Dict[str, int]
    block_id: int
    stmt_index: int = 0
    # Destination variable awaiting the return value of an in-flight call.
    pending_dest: Optional[str] = None


class Interpreter:
    """Executes a :class:`~repro.ir.module.Program` while tracing control flow."""

    def __init__(self, program: Program, max_events: int = DEFAULT_MAX_EVENTS):
        self.program = program
        self.max_events = max_events
        self.heap: Dict[int, int] = {}

    def run(
        self,
        args: Sequence[int] = (),
        inputs: Iterable[int] = (),
        tracer=None,
    ) -> RunResult:
        """Run ``main(*args)`` with the given input stream.

        ``tracer`` receives enter/block_run/leave events; defaults to a
        :class:`~repro.interp.tracer.NullTracer`.
        """
        if tracer is None:
            tracer = NullTracer()
        self.heap = {}
        self._input = iter(inputs)
        self._output: List[int] = []
        self._blocks_executed = 0
        self._calls_made = 0
        self._tracer = tracer
        self._run_buf: List[int] = []

        main = self.program.function(self.program.main)
        if len(args) != len(main.params):
            raise InterpError(
                f"main expects {len(main.params)} args, got {len(args)}"
            )
        try:
            return_value = self._execute(main, args)
        except BaseException:
            if self._run_buf:
                self._flush_run()
            raise
        return RunResult(
            return_value=return_value,
            output=self._output,
            blocks_executed=self._blocks_executed,
            calls_made=self._calls_made,
        )

    def _execute(self, main: Function, args: Sequence[int]) -> Optional[int]:
        stack: List[_Frame] = []
        frame = self._enter_function(main, list(args))

        while True:
            block = frame.func.block(frame.block_id)
            suspended = False

            while frame.stmt_index < len(block.statements):
                stmt = block.statements[frame.stmt_index]
                if isinstance(stmt, Call):
                    callee = self.program.function(stmt.callee)
                    arg_values = [self._eval(a, frame.env) for a in stmt.args]
                    frame.pending_dest = stmt.dest
                    frame.stmt_index += 1
                    stack.append(frame)
                    frame = self._enter_function(callee, arg_values)
                    block = frame.func.block(frame.block_id)
                    suspended = True
                    break
                self._exec_simple(stmt, frame.env)
                frame.stmt_index += 1

            if suspended:
                continue

            # Block finished: evaluate the terminator.
            term = block.terminator
            if isinstance(term, Jump):
                self._goto(frame, term.target)
            elif isinstance(term, CondJump):
                taken = self._eval(term.cond, frame.env)
                self._goto(frame, term.then_target if taken else term.else_target)
            elif isinstance(term, Switch):
                sel = self._eval(term.selector, frame.env)
                if 0 <= sel < len(term.cases):
                    self._goto(frame, term.cases[sel])
                else:
                    self._goto(frame, term.default)
            elif isinstance(term, Return):
                value = (
                    self._eval(term.value, frame.env)
                    if term.value is not None
                    else None
                )
                if self._run_buf:
                    self._flush_run()
                self._tracer.leave()
                if not stack:
                    return value
                frame = stack.pop()
                if frame.pending_dest is not None:
                    if value is None:
                        raise InterpError(
                            f"{frame.func.name}: call expected a return value "
                            "but callee returned none"
                        )
                    frame.env[frame.pending_dest] = value
                frame.pending_dest = None
            else:
                raise InterpError(
                    f"{frame.func.name}: B{frame.block_id} has invalid "
                    f"terminator {term!r}"
                )

    # ------------------------------------------------------------------

    def _enter_function(self, func: Function, arg_values: List[int]) -> _Frame:
        self._calls_made += 1
        if self._run_buf:
            self._flush_run()
        self._tracer.enter(func.name)
        env = dict(zip(func.params, arg_values))
        frame = _Frame(func=func, env=env, block_id=func.entry)
        self._note_block(func.entry)
        return frame

    def _goto(self, frame: _Frame, target: int) -> None:
        frame.block_id = target
        frame.stmt_index = 0
        self._note_block(target)

    def _note_block(self, block_id: int) -> None:
        self._blocks_executed += 1
        if self._blocks_executed > self.max_events:
            raise FuelExhausted(
                f"exceeded {self.max_events} basic-block events"
            )
        buf = self._run_buf
        buf.append(block_id)
        if len(buf) == RUN_BUFFER_CAP:
            self._flush_run()

    def _flush_run(self) -> None:
        """Hand the buffered run to the tracer, which may keep the list."""
        ids, self._run_buf = self._run_buf, []
        self._tracer.block_run(ids)

    def _exec_simple(self, stmt, env: Dict[str, int]) -> None:
        if isinstance(stmt, Assign):
            env[stmt.dest] = self._eval(stmt.expr, env)
        elif isinstance(stmt, Read):
            env[stmt.dest] = next(self._input, 0)
        elif isinstance(stmt, Load):
            env[stmt.dest] = self.heap.get(self._eval(stmt.addr, env), 0)
        elif isinstance(stmt, Store):
            self.heap[self._eval(stmt.addr, env)] = self._eval(stmt.value, env)
        elif isinstance(stmt, Write):
            self._output.append(self._eval(stmt.expr, env))
        elif isinstance(stmt, Breakpoint):
            pass  # markers are inert during tracing runs
        else:
            raise InterpError(f"cannot execute statement {stmt!r}")

    def _eval(self, expr: Expr, env: Dict[str, int]) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise UndefinedVariable(expr.name) from None
        if isinstance(expr, BinOp):
            return BINARY_OPS[expr.op](
                self._eval(expr.left, env), self._eval(expr.right, env)
            )
        if isinstance(expr, UnaryOp):
            return UNARY_OPS[expr.op](self._eval(expr.operand, env))
        if isinstance(expr, Intrinsic):
            return INTRINSICS[expr.name](
                *(self._eval(a, env) for a in expr.args)
            )
        raise InterpError(f"cannot evaluate expression {expr!r}")


def run_program(
    program: Program,
    args: Sequence[int] = (),
    inputs: Iterable[int] = (),
    tracer=None,
    max_events: int = DEFAULT_MAX_EVENTS,
    metrics=None,
) -> RunResult:
    """Run ``program`` once on the compiled engine
    (:mod:`repro.interp.compile`).

    A program the compiler declines
    (:class:`~repro.interp.errors.CompileUnsupported`) runs on this
    module's tree-walker instead; both engines produce identical event
    streams, results and errors.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is passed, runs
    are counted under ``interp.compiled_runs`` / ``interp.fallbacks``,
    translation under the ``interp.compile`` timer, and code-cache
    misses (function texts compiled) under ``interp.compiles``.
    """
    from .compile import compiled_for

    try:
        compiled = compiled_for(program, metrics=metrics)
    except CompileUnsupported:
        if metrics is not None:
            metrics.inc("interp.fallbacks")
        return Interpreter(program, max_events=max_events).run(
            args=args, inputs=inputs, tracer=tracer
        )
    if metrics is not None:
        metrics.inc("interp.compiled_runs")
    return compiled.run(
        args=args, inputs=inputs, tracer=tracer, max_events=max_events
    )
