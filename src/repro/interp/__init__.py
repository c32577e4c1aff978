"""Execution substrate: interpreters plus trace hooks.

Running a program through :func:`run_program` with a
:class:`~repro.trace.wpp.WppBuilder` tracer is how this reproduction
collects whole program paths (the paper collected them with the Trimaran
compiler infrastructure on SPECint95).

Two engines share one contract: the tree-walking reference interpreter
(:mod:`repro.interp.interpreter`) and the compiled engine
(:mod:`repro.interp.compile`), which translates each program into
dispatch-free generated Python, compiling each distinct generated
function text once per process (one content-keyed code cache).  :func:`run_program` selects between
them (``interp="tree" | "compiled"``, compiled by default) and falls
back to the tree automatically when a program cannot be compiled.
"""

from .compile import (
    DEFAULT_INTERP,
    INTERP_CHOICES,
    CompiledProgram,
    compiled_for,
    resolve_interp,
    run_compiled,
)
from .errors import CompileUnsupported, FuelExhausted, InterpError, UndefinedVariable
from .interpreter import DEFAULT_MAX_EVENTS, Interpreter, RunResult, run_program
from .tracer import CountingTracer, ListTracer, NullTracer

__all__ = [
    "CompileUnsupported",
    "CompiledProgram",
    "CountingTracer",
    "DEFAULT_INTERP",
    "DEFAULT_MAX_EVENTS",
    "FuelExhausted",
    "INTERP_CHOICES",
    "InterpError",
    "Interpreter",
    "ListTracer",
    "NullTracer",
    "RunResult",
    "UndefinedVariable",
    "compiled_for",
    "resolve_interp",
    "run_compiled",
    "run_program",
]
