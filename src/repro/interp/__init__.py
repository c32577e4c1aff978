"""Execution substrate: interpreters plus trace hooks.

Running a program through :func:`run_program` with a
:class:`~repro.trace.wpp.WppBuilder` tracer is how this reproduction
collects whole program paths (the paper collected them with the Trimaran
compiler infrastructure on SPECint95).

:func:`run_program` runs the compiled engine
(:mod:`repro.interp.compile`), which translates each program into
dispatch-free generated Python, compiling each distinct generated
function text once per process (one content-keyed code cache).  The
tree-walking reference interpreter (:mod:`repro.interp.interpreter`)
runs the programs the compiler declines.  Both report to a tracer
through one protocol, ``enter(name)`` / ``block_run(ids)`` / ``leave()``,
where ``ids`` is a fresh list the tracer may keep (see
:mod:`repro.interp.tracer`).
"""

from .compile import CompiledProgram, compiled_for
from .errors import (
    CompileUnsupported,
    DivisionByZero,
    FuelExhausted,
    InterpError,
    ShiftTooLarge,
    UndefinedVariable,
)
from .interpreter import DEFAULT_MAX_EVENTS, Interpreter, RunResult, run_program
from .tracer import CountingTracer, ListTracer, NullTracer

__all__ = [
    "CompileUnsupported",
    "CompiledProgram",
    "CountingTracer",
    "DEFAULT_MAX_EVENTS",
    "DivisionByZero",
    "FuelExhausted",
    "InterpError",
    "Interpreter",
    "ListTracer",
    "NullTracer",
    "RunResult",
    "ShiftTooLarge",
    "UndefinedVariable",
    "compiled_for",
    "run_program",
]
