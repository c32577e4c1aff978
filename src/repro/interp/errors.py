"""Interpreter error types."""

from __future__ import annotations


class InterpError(Exception):
    """Base class for execution failures."""


class FuelExhausted(InterpError):
    """Raised when execution exceeds the configured event budget.

    Synthetic workloads are generated rather than hand-proved to
    terminate, so every run carries a fuel budget; hitting it is a
    workload bug, not a silent truncation.
    """


class UndefinedVariable(InterpError):
    """Raised when an expression reads a variable that was never assigned.

    ``args`` is ``(name,)``; the message names the variable.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"undefined variable {self.name!r}"


class DivisionByZero(InterpError, ZeroDivisionError):
    """Raised when an IR ``//`` or ``%`` has a zero divisor.

    Both an :class:`InterpError` (a fault of the traced program, which
    the CLI reports as ``error:``) and a :class:`ZeroDivisionError`.
    """


class ShiftTooLarge(InterpError):
    """Raised when an IR ``<<`` has a count above
    :data:`~repro.ir.expr.MAX_SHIFT`."""


class CompileUnsupported(InterpError):
    """Raised when a program contains constructs the compiled engine
    cannot translate (non-identifier variable names, unknown statement
    or terminator subclasses, call-site arity mismatches, ...).

    :func:`~repro.interp.run_program` catches this and falls back to
    the tree-walking reference interpreter, so the condition is a
    performance downgrade, never a failure.
    """
