"""Compile IR functions to dispatch-free Python for traced execution.

The tree-walker in :mod:`repro.interp.interpreter` pays for generality on
every single event: an ``isinstance`` ladder per statement, a dict lookup
per variable access, a method dispatch per traced block.  This module
removes all of that by translating each IR function into generated
Python source, one ``_factory`` definition per function, compiled to a
code object and ``exec``'d into that function's factory:

* IR locals become real Python locals (mangled ``v_<name>``), so operand
  access is a ``LOAD_FAST``, not a dict probe.
* Straight-line regions become dispatch-free bodies: single-predecessor
  ``Jump`` targets are merged into their predecessor ("superblocks"), so
  a loop body that spans four IR blocks runs as one run of bytecode.
  Multi-predecessor targets are dispatched by a single ``while``/``elif``
  ladder over an integer label -- the only residual dispatch.
* Tracing is fused into each block's preamble: two statements, a list
  append of the block id and one capacity test.  The run buffer's
  ``_spill`` also owns the event budget: once fewer than a buffer's
  worth of blocks remain, it pads the buffer so that the capacity test
  fires on the block that exceeds the budget (see
  :meth:`CompiledProgram.run`).  Runs go to the tracer's ``block_run``
  exactly as the tree-walker hands them over -- same flush boundaries,
  same truncation point, each run a fresh list.
* Expressions compile to native operators where Python semantics match
  (:data:`~repro.ir.expr.PY_NATIVE_BINOPS`); comparisons are wrapped in
  ``int(...)`` in value context so results stay ints.  ``//`` and ``%``
  by a nonzero constant, and ``<<`` by a constant count within
  :data:`~repro.ir.expr.MAX_SHIFT`, are native too; any other right
  operand calls the tree-walker's checked helper
  (:data:`~repro.ir.expr.CHECKED_BINOPS`), so a zero divisor or an
  oversized shift count raises its message.
  An intrinsic whose arguments are all variables or constants is
  inlined from its template (:data:`~repro.ir.expr.INTRINSIC_TEMPLATES`,
  the same definition the tree-walker's callables come from).  So a
  block's statements call no Python-level function that cannot fault.

Observable behavior is *exactly* the tree-walker's: event stream,
``FuelExhausted`` truncation point (a block that exceeds the budget is
never traced, and pending runs are flushed before any raise), undefined
variable / zero-division / missing-return errors, and
:class:`~repro.interp.interpreter.RunResult` counters.  The differential
suite in ``tests/test_interp_compiled.py`` enforces this over all
workloads plus hypothesis-generated programs.

Code cache
----------

CPython ``compile()`` of the generated text is most of a translation's
cost, and the text of most functions repeats: every run of one program
gets a new :class:`~repro.ir.module.Program` (the parser shares the
frozen functions of texts it has seen, but the program and its call
graph are new), and the scale steps of one generated workload differ
only in ``main``.  So the
code object of each generated function text is kept in one bounded,
module-level LRU keyed by the text itself (:data:`CODE_CACHE_SIZE`
texts).  A function's text carries everything its factory depends on
-- its name, its callees' indices, each call's direct or trampolined
form and the run-buffer capacity -- so a program that changes changes
the key, and a translation is never reused for a program it was not
made from.  Each :class:`CompiledProgram` still generates every text
afresh; only ``compile()`` is skipped on a hit.

Recursion safety
----------------

Generated workloads recurse thousands of IR frames deep, far past
CPython's stack limit, so compiled functions cannot simply call each
other.  Call-graph analysis picks one of two call mechanics per function:

* **direct** -- functions whose static call subtree is acyclic and needs
  at most :data:`DIRECT_DEPTH_CAP` Python frames are compiled as plain
  functions and invoked directly (fastest path; covers leaf helpers and
  shallow call layers).
* **trampolined** -- everything else compiles to a generator that
  ``yield``\\ s ``(callee_index, args)`` for each call; a driver loop
  keeps the pending generators on an explicit Python list, so IR
  recursion depth is bounded by memory, not the C stack.

Programs containing constructs the translator cannot prove equivalent
(non-identifier variable names, statement/terminator/expression
*subclasses*, call-site arity mismatches, unknown callees, malformed
CFGs) raise :class:`~repro.interp.errors.CompileUnsupported`;
:func:`~repro.interp.run_program` falls back to the tree-walker, which
reproduces the reference semantics for those programs by construction.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from functools import partial
from itertools import repeat
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..ir.expr import (
    CHECKED_BINOPS,
    INTRINSIC_TEMPLATES,
    INTRINSICS,
    PY_COMPARISON_BINOPS,
    PY_NATIVE_BINOPS,
    BinOp,
    Const,
    Intrinsic,
    UnaryOp,
    Var,
    expand_intrinsic,
    native_when,
)
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
from ..util.lru import lru_lookup
from .errors import CompileUnsupported, FuelExhausted, InterpError, UndefinedVariable
from .interpreter import DEFAULT_MAX_EVENTS, RUN_BUFFER_CAP, RunResult
from .tracer import NullTracer

#: Maximum Python stack frames a directly-called (non-trampolined) call
#: subtree may need.  Deliberately far below CPython's recursion limit:
#: the trampoline driver, tracer callbacks and test harness frames all
#: share the same stack.
DIRECT_DEPTH_CAP = 48

#: Generated function texts whose code objects the code cache keeps.
#: One pass of the e2e ingest programs (15 runs, 795 functions) has 275
#: distinct texts; the bound is about four times that.
CODE_CACHE_SIZE = 1024


# ----------------------------------------------------------------------
# Code generation


class _FunctionCodegen:
    """Generates the ``_factory`` definition of one IR function."""

    def __init__(
        self,
        func: Function,
        func_index: Dict[str, int],
        direct: Dict[str, bool],
        program: Program,
    ):
        self.func = func
        self.func_index = func_index
        self.direct = direct
        self.program = program
        self.lines: List[str] = []
        self.intrinsics: Set[str] = set()
        # Operators of CHECKED_BINOPS whose checked helper this body calls.
        self.helpers: Set[str] = set()
        self.roots: Set[int] = set()

    # -- helpers -------------------------------------------------------

    def fail(self, detail: str) -> "CompileUnsupported":
        return CompileUnsupported(f"{self.func.name}: {detail}")

    def mangle(self, name: object) -> str:
        # Mangling keeps IR names from colliding with runtime helpers and
        # builtins; anything that is not a plain identifier cannot become
        # a Python local and forces tree fallback.
        if not isinstance(name, str) or not name.isidentifier():
            raise self.fail(f"variable name {name!r} is not an identifier")
        return "v_" + name

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    # -- expressions ---------------------------------------------------

    def expr(self, e, bool_ctx: bool = False) -> str:
        t = type(e)
        if t is Const:
            return repr(e.value)
        if t is Var:
            return self.mangle(e.name)
        if t is BinOp:
            left = self.expr(e.left)
            right = self.expr(e.right)
            op = e.op
            if op in PY_NATIVE_BINOPS:
                return f"({left} {op} {right})"
            if op in PY_COMPARISON_BINOPS:
                cmp = f"({left} {op} {right})"
                # Branch conditions only test truthiness; everywhere else
                # the result must be an int like BINARY_OPS produces.
                return cmp if bool_ctx else f"int{cmp}"
            if op in CHECKED_BINOPS:
                operand = e.right
                if (
                    type(operand) is Const
                    and type(operand.value) is int
                    and native_when(op, operand.value)
                ):
                    return f"({left} {op} {right})"
                self.helpers.add(op)
                return f"{_HELPER_NAMES[op]}({left}, {right})"
            raise self.fail(f"binary operator {op!r} has no compiled form")
        if t is UnaryOp:
            operand = self.expr(e.operand)
            if e.op == "-":
                return f"(-{operand})"
            if e.op == "!":
                test = f"({operand} == 0)"
                return test if bool_ctx else f"int{test}"
            raise self.fail(f"unary operator {e.op!r} has no compiled form")
        if t is Intrinsic:
            if e.name not in INTRINSICS:
                raise self.fail(f"unknown intrinsic {e.name!r}")
            args = [self.expr(a) for a in e.args]
            if len(args) == len(INTRINSIC_TEMPLATES[e.name][0]) and all(
                type(a) is Var or type(a) is Const for a in e.args
            ):
                return expand_intrinsic(e.name, args)
            # A compound argument would be evaluated once per use in the
            # template; the call evaluates it once (and raises the same
            # TypeError as the tree-walker on an arity mismatch).
            self.intrinsics.add(e.name)
            return f"_i_{e.name}({', '.join(args)})"
        raise self.fail(f"expression {e!r} has no compiled form")

    # -- statements ----------------------------------------------------

    def emit_stmt(self, stmt, depth: int) -> None:
        t = type(stmt)
        if t is Assign:
            self.emit(depth, f"{self.mangle(stmt.dest)} = {self.expr(stmt.expr)}")
        elif t is Read:
            self.emit(depth, f"{self.mangle(stmt.dest)} = _next_in()")
        elif t is Load:
            self.emit(depth, f"{self.mangle(stmt.dest)} = _hget({self.expr(stmt.addr)}, 0)")
        elif t is Store:
            # Assignment evaluates the RHS before the subscript target in
            # both engines, so value-before-address order is preserved.
            self.emit(depth, f"_heap[{self.expr(stmt.addr)}] = {self.expr(stmt.value)}")
        elif t is Write:
            self.emit(depth, f"_out_append({self.expr(stmt.expr)})")
        elif t is Call:
            self.emit_call(stmt, depth)
        elif t is Breakpoint:
            pass  # inert marker, same as the tree-walker
        else:
            raise self.fail(f"statement {stmt!r} has no compiled form")

    def emit_call(self, stmt: Call, depth: int) -> None:
        callee_idx = self.func_index.get(stmt.callee)
        if callee_idx is None:
            raise self.fail(f"call to unknown function {stmt.callee!r}")
        callee = self.program.functions[stmt.callee]
        if len(stmt.args) != len(callee.params):
            # The tree-walker zips silently; a compiled def would raise
            # TypeError, so arity mismatches must run on the tree.
            raise self.fail(
                f"call to {stmt.callee!r} passes {len(stmt.args)} args "
                f"for {len(callee.params)} params"
            )
        argsrc = ", ".join(self.expr(a) for a in stmt.args)
        if self.direct[stmt.callee]:
            call = f"_F[{callee_idx}]({argsrc})"
        else:
            tup = f"({argsrc},)" if stmt.args else "()"
            call = f"(yield ({callee_idx}, {tup}))"
        if stmt.dest is None:
            self.emit(depth, call)
        else:
            msg = (
                f"{self.func.name}: call expected a return value "
                "but callee returned none"
            )
            self.emit(depth, f"_rv = {call}")
            self.emit(depth, "if _rv is None:")
            self.emit(depth + 1, f"raise InterpError({msg!r})")
            self.emit(depth, f"{self.mangle(stmt.dest)} = _rv")

    # -- blocks --------------------------------------------------------

    def emit_superblock(self, root: int, depth: int, in_loop: bool) -> None:
        """Emit ``root`` plus every single-predecessor Jump chain off it."""
        bid = root
        merged: Set[int] = set()
        while True:
            if bid in merged:
                raise self.fail(f"superblock cycle through B{bid}")
            merged.add(bid)
            block = self.func.blocks[bid]
            # Fused tracing preamble: append, then the one capacity test
            # that also enforces the budget (see CompiledProgram.run), so
            # a block past the budget never runs its statements and flush
            # segmentation is the tree-walker's.
            self.emit(depth, f"_t({bid})")
            self.emit(depth, f"if len(_tb) == {RUN_BUFFER_CAP}: _spill()")
            for stmt in block.statements:
                self.emit_stmt(stmt, depth)
            term = block.terminator
            t = type(term)
            if t is Jump:
                target = term.target
                if target not in self.func.blocks:
                    raise self.fail(f"B{bid} targets missing block B{target}")
                if target in self.roots:
                    self.emit(depth, f"_L = {target}")
                    if in_loop:
                        self.emit(depth, "continue")
                    return
                bid = target  # single-predecessor: merge into this superblock
                continue
            if t is CondJump:
                cond = self.expr(term.cond, bool_ctx=True)
                self.emit(
                    depth,
                    f"_L = {term.then_target} if {cond} else {term.else_target}",
                )
                if in_loop:
                    self.emit(depth, "continue")
                return
            if t is Switch:
                ncases = len(term.cases)
                self.emit(depth, f"_s = {self.expr(term.selector)}")
                if ncases:
                    cases = "(" + ", ".join(str(c) for c in term.cases) + ",)"
                    self.emit(
                        depth,
                        f"_L = {cases}[_s] if 0 <= _s < {ncases} else {term.default}",
                    )
                else:
                    self.emit(depth, f"_L = {term.default}")
                if in_loop:
                    self.emit(depth, "continue")
                return
            if t is Return:
                if term.value is not None:
                    self.emit(depth, f"_rv = {self.expr(term.value)}")
                else:
                    self.emit(depth, "_rv = None")
                self.emit(depth, "if _tb: _spill()")
                self.emit(depth, "_leave()")
                self.emit(depth, "return _rv")
                return
            raise self.fail(f"B{bid} has invalid terminator {term!r}")

    # -- whole function ------------------------------------------------

    def scan_structure(self) -> bool:
        """Compute dispatch roots; returns whether entry is re-entrant."""
        func = self.func
        if len(set(func.params)) != len(func.params):
            raise self.fail("duplicate parameter names")
        if func.entry not in func.blocks:
            raise self.fail(f"missing entry block B{func.entry}")
        npreds: Dict[int, int] = {}
        branch_targets: Set[int] = set()
        jump_targets: Set[int] = set()
        for bid, block in func.blocks.items():
            term = block.terminator
            t = type(term)
            if t is Jump:
                targets: Tuple[int, ...] = (term.target,)
                jump_targets.add(term.target)
            elif t is CondJump:
                targets = (term.then_target, term.else_target)
                branch_targets.update(targets)
            elif t is Switch:
                targets = tuple(term.cases) + (term.default,)
                branch_targets.update(targets)
            elif t is Return:
                targets = ()
            else:
                raise self.fail(f"B{bid} has invalid terminator {term!r}")
            for target in targets:
                if target not in func.blocks:
                    raise self.fail(f"B{bid} targets missing block B{target}")
                npreds[target] = npreds.get(target, 0) + 1
        # Roots get a dispatch arm; everything else is merged into the
        # superblock of its unique Jump predecessor.
        self.roots = branch_targets | {
            t for t in jump_targets if npreds.get(t, 0) != 1
        }
        reentrant = func.entry in npreds
        if reentrant:
            self.roots.add(func.entry)
        return reentrant

    def generate(self) -> List[str]:
        func = self.func
        reentrant = self.scan_structure()
        is_direct = self.direct[func.name]

        self.emit(2, "_calls[0] += 1")
        self.emit(2, "if _tb: _spill()")
        self.emit(2, f"_enter({func.name!r})")
        if func.entry in self.roots:
            self.emit(2, f"_L = {func.entry}")
        else:
            self.emit_superblock(func.entry, depth=2, in_loop=False)
        if self.roots:
            self.emit(2, "while True:")
            keyword = "if"
            for root in sorted(self.roots):
                self.emit(3, f"{keyword} _L == {root}:")
                self.emit_superblock(root, depth=4, in_loop=True)
                keyword = "elif"
            unreachable = f"{func.name}: dispatch reached unknown block"
            self.emit(3, f"raise InterpError({unreachable!r})")

        params = ", ".join(self.mangle(p) for p in func.params)
        sig = f"{params}, *, _t=_t, _tb=_tb, _F=_F" if params else "*, _t=_t, _tb=_tb, _F=_F"
        out = [
            "def _factory(_rt):",
            "    (_F, _heap, _next_in, _out_append, _t, _tb, _spill,"
            " _enter, _leave, _calls) = _rt",
        ]
        if any(type(s) is Load for b in func.blocks.values() for s in b.statements):
            out.append("    _hget = _heap.get")
        for op in sorted(self.helpers):
            out.append(f"    {_HELPER_NAMES[op]} = _CHECKED[{op!r}]")
        for name in sorted(self.intrinsics):
            out.append(f"    _i_{name} = _INTR[{name!r}]")
        out.append(f"    def _fn({sig}):")
        if not is_direct:
            # Dead yield forces generator-ness even when every call site
            # in this body compiles to a direct call.
            out.append("        if 0: yield")
        out.extend(self.lines)
        out.append(f"    _fn.__qualname__ = {func.name!r}")
        out.append("    return _fn")
        return out


def _direct_depths(program: Program) -> Dict[str, float]:
    """Worst-case Python frame depth of each function's direct call subtree.

    ``inf`` marks functions on (or above) a call-graph cycle; those must
    run on the trampoline.  DFS over a static graph: an edge into an
    in-progress node is a genuine back edge, i.e. recursion.
    """
    inf = float("inf")
    memo: Dict[str, float] = {}
    in_progress: Set[str] = set()

    def depth(name: str) -> float:
        cached = memo.get(name)
        if cached is not None:
            return cached
        if name in in_progress:
            return inf
        func = program.functions.get(name)
        if func is None:
            return inf  # caller's emit_call rejects this program anyway
        in_progress.add(name)
        worst = 0.0
        for block in func.blocks.values():
            for stmt in block.statements:
                if type(stmt) is Call:
                    d = depth(stmt.callee)
                    if d > worst:
                        worst = d
        in_progress.discard(name)
        memo[name] = result = 1 + worst
        return result

    for name in program.functions:
        depth(name)
    return memo


_BASE_NAMESPACE = {
    "InterpError": InterpError,
    "_INTR": INTRINSICS,
    "_CHECKED": CHECKED_BINOPS,
}

#: The local each checked helper is bound to in a generated factory.
_HELPER_NAMES = {"//": "_div", "%": "_mod", "<<": "_lshift"}

_NAME_IN_MESSAGE = re.compile(r"'([^']+)'")


def _undefined_var(exc: Exception) -> Optional[str]:
    """Extract the IR variable behind a NameError from generated code."""
    name = getattr(exc, "name", None)  # absent before Python 3.10
    if not name:
        match = _NAME_IN_MESSAGE.search(str(exc))
        name = match.group(1) if match else None
    if name and name.startswith("v_"):
        return name[2:]
    return None


class CompiledProgram:
    """A program translated to generated Python, reusable across runs.

    Construction snapshots the program (functions, ``main``, arities):
    this instance does not see later changes to the
    :class:`~repro.ir.module.Program`, but a new one (every
    :func:`compiled_for` call makes one) translates the program as it
    is then.  Each function's code object comes from the code cache
    (see the module docstring); ``compiles`` counts the ones this
    construction had to compile.  Instances hold no reference to the
    program.
    """

    def __init__(self, program: Program):
        compiles = 0
        texts: List[str] = []
        factories: List[Callable] = []
        try:
            func_names = list(program.functions)
            func_index = {name: i for i, name in enumerate(func_names)}
            if program.main not in func_index:
                raise CompileUnsupported(f"no function named {program.main!r}")
            depths = _direct_depths(program)
            direct = {
                name: depths[name] <= DIRECT_DEPTH_CAP for name in func_names
            }
            for name in func_names:
                codegen = _FunctionCodegen(
                    program.functions[name], func_index, direct, program
                )
                text = "\n".join(codegen.generate()) + "\n"
                code, compiled = _code_for(text)
                compiles += compiled
                namespace = dict(_BASE_NAMESPACE)
                exec(code, namespace)
                texts.append(text)
                factories.append(namespace["_factory"])
        except RecursionError:
            raise CompileUnsupported(
                "static call graph too deep to analyze"
            ) from None
        self.source = "\n".join(texts)
        self.compiles = compiles
        self.func_names = func_names
        self._factories = factories
        self._direct = [direct[name] for name in func_names]
        self._main_index = func_index[program.main]
        self._main_params = len(program.functions[program.main].params)

    def run(
        self,
        args: Sequence[int] = (),
        inputs=(),
        tracer=None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> RunResult:
        """Run ``main(*args)``; same contract as :meth:`Interpreter.run`."""
        if tracer is None:
            tracer = NullTracer()
        if len(args) != self._main_params:
            raise InterpError(
                f"main expects {self._main_params} args, got {len(args)}"
            )
        heap: Dict[int, int] = {}
        output: List[int] = []
        calls = [0]
        block_run = tracer.block_run
        cap = RUN_BUFFER_CAP
        budget = max(max_events, 0)
        # The run buffer also enforces the budget.  ``left`` counts the
        # blocks still allowed past those already spilled.  Once it drops
        # below the capacity, the buffer starts with ``pad`` placeholders,
        # so the capacity test fires on the append of exactly the block
        # that exceeds the budget -- before its statements run.
        buf: List[int] = []
        left = budget
        pad = 0

        def restart() -> None:
            nonlocal pad
            del buf[:]
            pad = cap - 1 - left if left < cap else 0
            buf.extend(repeat(0, pad))

        def spill() -> None:
            # Runs at every enter and leave with blocks pending, so the
            # common case (no padding, budget far off) stays short.
            nonlocal left
            n = len(buf) - pad
            if n > left:
                # buf[pad + left] is the block past the budget: drop it,
                # and run()'s handler hands over the blocks before it.
                del buf[pad + left:]
                raise FuelExhausted(f"exceeded {max_events} basic-block events")
            if n:
                run = buf[pad:]
                left -= n
                if left < cap:
                    restart()
                else:
                    del buf[:]
                block_run(run)

        restart()
        next_in = partial(next, iter(inputs), 0)
        functions: List[Optional[Callable]] = [None] * len(self._factories)
        runtime = (
            functions,
            heap,
            next_in,
            output.append,
            buf.append,
            buf,
            spill,
            tracer.enter,
            tracer.leave,
            calls,
        )
        for i, factory in enumerate(self._factories):
            functions[i] = factory(runtime)
        try:
            if self._direct[self._main_index]:
                return_value = functions[self._main_index](*args)
            else:
                return_value = _trampoline(functions, self._main_index, args)
        except BaseException as exc:
            # Hand over the pending blocks, as the tree-walker does.
            spill()
            if isinstance(exc, (NameError, UnboundLocalError)):
                name = _undefined_var(exc)
                if name is not None:
                    raise UndefinedVariable(name) from None
            raise
        return RunResult(
            return_value=return_value,
            output=output,
            blocks_executed=budget - left - (len(buf) - pad),
            calls_made=calls[0],
        )


def _trampoline(functions, main_index: int, args: Sequence[int]):
    """Drive trampolined generators with an explicit activation stack."""
    stack: List = []
    gen = functions[main_index](*args)
    send = gen.send
    value = None
    while True:
        try:
            request = send(value)
        except StopIteration as stop:
            if not stack:
                return stop.value
            gen = stack.pop()
            send = gen.send
            value = stop.value
        else:
            stack.append(gen)
            gen = functions[request[0]](*request[1])
            send = gen.send
            value = None


# ----------------------------------------------------------------------
# Code cache + engine entry points

_code_lock = threading.Lock()
# Generated function text -> its code object, least recently used first.
_code_cache: "OrderedDict[str, CodeType]" = OrderedDict()


def _code_for(text: str) -> Tuple[CodeType, bool]:
    """The code object of one generated function text, and whether it
    had to be compiled (a code-cache miss).

    Keeps at most :data:`CODE_CACHE_SIZE` texts, evicting the least
    recently used.  Two threads missing on one text may both compile
    it; either code object is correct.
    """
    return lru_lookup(
        _code_cache,
        _code_lock,
        CODE_CACHE_SIZE,
        text,
        partial(compile, text, "<repro.interp.compile>", "exec"),
    )


def compiled_for(program: Program, metrics=None) -> CompiledProgram:
    """Translate ``program`` as it is now into a :class:`CompiledProgram`.

    Only functions whose generated text is not in the code cache are
    compiled.  With a metrics registry, the translation is timed under
    ``interp.compile`` and ``interp.compiles`` counts the code objects
    it compiled.  Raises
    :class:`~repro.interp.errors.CompileUnsupported` if the program
    cannot be compiled.
    """
    if metrics is None:
        return CompiledProgram(program)
    with metrics.timer("interp.compile"):
        compiled = CompiledProgram(program)
    metrics.inc("interp.compiles", compiled.compiles)
    return compiled

