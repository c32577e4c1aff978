"""Statements and terminators for the repro IR.

A basic block holds a list of non-terminating :class:`Stmt` objects
followed by exactly one :class:`Terminator`.  Every statement knows the
variables it defines (:meth:`Stmt.defs`) and uses (:meth:`Stmt.uses`),
which drives the data-flow applications in :mod:`repro.analysis`
(GEN/KILL computation, dynamic slicing, currency determination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from .expr import Expr, slotted


class Stmt:
    """Base class for non-terminating statements."""

    __slots__ = ()

    def defs(self) -> FrozenSet[str]:
        """Variables written by this statement."""
        return frozenset()

    def uses(self) -> FrozenSet[str]:
        """Variables read by this statement."""
        return frozenset()


@slotted
@dataclass(frozen=True)
class Assign(Stmt):
    """``dest = expr``."""

    dest: str
    expr: Expr

    def defs(self) -> FrozenSet[str]:
        return frozenset((self.dest,))

    def uses(self) -> FrozenSet[str]:
        return self.expr.variables()

    def __str__(self) -> str:
        return f"{self.dest} = {self.expr}"


@slotted
@dataclass(frozen=True)
class Read(Stmt):
    """``dest = read()`` -- consume the next value of the input stream.

    Mirrors the ``read N`` / ``read X`` statements in the paper's
    Figure 10 slicing example.  When the input stream is exhausted the
    interpreter yields 0, so programs always terminate deterministically.
    """

    dest: str

    def defs(self) -> FrozenSet[str]:
        return frozenset((self.dest,))

    def __str__(self) -> str:
        return f"{self.dest} = read()"


@slotted
@dataclass(frozen=True)
class Load(Stmt):
    """``dest = MEM[addr]`` -- read one heap cell.

    The heap exists so the load-redundancy application (paper Figure 9)
    has genuine loads to classify; addresses are plain integers.
    """

    dest: str
    addr: Expr

    def defs(self) -> FrozenSet[str]:
        return frozenset((self.dest,))

    def uses(self) -> FrozenSet[str]:
        return self.addr.variables()

    def __str__(self) -> str:
        return f"{self.dest} = load {self.addr}"


@slotted
@dataclass(frozen=True)
class Store(Stmt):
    """``MEM[addr] = value`` -- write one heap cell."""

    addr: Expr
    value: Expr

    def uses(self) -> FrozenSet[str]:
        return self.addr.variables() | self.value.variables()

    def __str__(self) -> str:
        return f"store {self.addr} = {self.value}"


@slotted
@dataclass(frozen=True)
class Call(Stmt):
    """``dest = callee(args...)`` (dest optional).

    Calls are the only statements that transfer control between
    functions and therefore the only statements that create dynamic
    call graph nodes in the WPP.
    """

    callee: str
    args: Tuple[Expr, ...] = field(default_factory=tuple)
    dest: Optional[str] = None

    def defs(self) -> FrozenSet[str]:
        if self.dest is None:
            return frozenset()
        return frozenset((self.dest,))

    def uses(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def __str__(self) -> str:
        call = f"{self.callee}({', '.join(str(a) for a in self.args)})"
        if self.dest is None:
            return f"call {call}"
        return f"{self.dest} = call {call}"


@slotted
@dataclass(frozen=True)
class Write(Stmt):
    """``write expr`` -- append a value to the program's output list."""

    expr: Expr

    def uses(self) -> FrozenSet[str]:
        return self.expr.variables()

    def __str__(self) -> str:
        return f"write {self.expr}"


@slotted
@dataclass(frozen=True)
class Breakpoint(Stmt):
    """A named debugger breakpoint marker.

    Semantically a no-op; the debugging applications (dynamic slicing,
    currency determination) use it to anchor "the user stopped here"
    scenarios from the paper's Figures 10 and 12.
    """

    name: str = "bp"

    def __str__(self) -> str:
        return f"breakpoint {self.name}"


class Terminator:
    """Base class for block terminators."""

    __slots__ = ()

    def targets(self) -> Tuple[int, ...]:
        """Block ids this terminator may transfer control to."""
        raise NotImplementedError

    def uses(self) -> FrozenSet[str]:
        """Variables read when evaluating this terminator."""
        return frozenset()


@slotted
@dataclass(frozen=True)
class Jump(Terminator):
    """Unconditional branch to ``target``."""

    target: int

    def targets(self) -> Tuple[int, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"jump B{self.target}"


@slotted
@dataclass(frozen=True)
class CondJump(Terminator):
    """Two-way branch: ``if cond != 0 goto then_target else else_target``."""

    cond: Expr
    then_target: int
    else_target: int

    def targets(self) -> Tuple[int, ...]:
        return (self.then_target, self.else_target)

    def uses(self) -> FrozenSet[str]:
        return self.cond.variables()

    def __str__(self) -> str:
        return f"if {self.cond} then B{self.then_target} else B{self.else_target}"


@slotted
@dataclass(frozen=True)
class Switch(Terminator):
    """N-way branch on ``selector``.

    ``cases[i]`` is taken when ``selector == i``; out-of-range selectors
    take ``default``.  The synthetic workload generator uses switches to
    realise skewed path-selection distributions: duplicating a target in
    ``cases`` gives that path proportionally more weight.
    """

    selector: Expr
    cases: Tuple[int, ...]
    default: int

    def targets(self) -> Tuple[int, ...]:
        # Deduplicate while preserving order; duplicated case targets are
        # a weighting device, not distinct CFG edges.
        seen = []
        for t in self.cases + (self.default,):
            if t not in seen:
                seen.append(t)
        return tuple(seen)

    def uses(self) -> FrozenSet[str]:
        return self.selector.variables()

    def __str__(self) -> str:
        body = ", ".join(f"{i}: B{t}" for i, t in enumerate(self.cases))
        return f"switch {self.selector} [{body}] default B{self.default}"


@slotted
@dataclass(frozen=True)
class Return(Terminator):
    """Return from the current function, optionally with a value."""

    value: Optional[Expr] = None

    def targets(self) -> Tuple[int, ...]:
        return ()

    def uses(self) -> FrozenSet[str]:
        if self.value is None:
            return frozenset()
        return self.value.variables()

    def __str__(self) -> str:
        if self.value is None:
            return "return"
        return f"return {self.value}"
